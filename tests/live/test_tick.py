"""The anti-entropy timer: each tick lands within a fifth of the
interval either way, drawn from the loop's seeded RNG."""

import asyncio
import random

import pytest

from repro.live.antientropy import AntiEntropyLoop

SEED = 11
TICKS = 32


class NoPeers:
    """A peer manager with nobody connected: every tick is a no-op."""

    def connected_peers(self):
        return []


def _slept(monkeypatch, interval_s):
    """The first TICKS delays a seeded loop's ``run()`` sleeps."""
    loop = AntiEntropyLoop(None, NoPeers(), interval_s=interval_s, seed=SEED)
    delays = []

    async def sleep(delay):
        delays.append(delay)
        if len(delays) == TICKS:
            loop.stop()

    monkeypatch.setattr(asyncio, "sleep", sleep)
    asyncio.run(loop.run())
    return delays


def test_default_interval_draws_are_unchanged(monkeypatch):
    # At the 1 s default the spread is the former fixed 0.2 s jitter.
    rng = random.Random(SEED)
    expected = [1.0 + 0.2 * (2.0 * rng.random() - 1.0) for _ in range(TICKS)]
    assert _slept(monkeypatch, 1.0) == expected


@pytest.mark.parametrize("interval_s", [0.04, 3600.0])
def test_tick_lands_within_a_fifth_of_the_interval(monkeypatch, interval_s):
    delays = _slept(monkeypatch, interval_s)
    assert len(delays) == TICKS
    for delay in delays:
        assert abs(delay - interval_s) <= interval_s / 5
    assert len(set(delays)) == TICKS
