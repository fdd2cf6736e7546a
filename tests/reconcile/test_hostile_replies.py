"""Hostile replies: whatever a responder answers, the initiator's session
is torn — nothing else is raised, nothing enters the replica.

Driven through the network driver (``run_session`` against an honest
``serve_connection``) with the initiator's end of the link swapping a
reply of one type for a hostile variant on its way in.  Every reply
type the shipped protocol's or a study protocol's initiator consumes
is covered: missing keys, wrong container types, malformed blocks,
non-bytes and wrong-length digests, bool / negative sizes, plus an
``error`` reply and an unexpected reply type on each protocol's first
exchange.  One live case checks that the anti-entropy loop survives
such a peer.
"""

import asyncio

import pytest

from repro import wire
from repro.chain.block import Block
from repro.crypto.sha import DIGEST_SIZE, Hash
from repro.live.antientropy import AntiEntropyLoop
from repro.reconcile import FrontierProtocol
from repro.reconcile.session import BATCH_BUDGET_BYTES

from benchmarks.protocols import (
    BloomProtocol,
    FullExchangeProtocol,
    HeightSkipProtocol,
    PROTOCOLS,
    SketchProtocol,
)
from tests.conftest import Deployment, InFlight, over_loopback
from tests.live.memory_runtime import stream_pair


def _pair(left_appends, right_appends):
    deployment = Deployment()
    left, right = deployment.node(0), deployment.node(1)
    shared = left.append_transactions([])
    right.receive_block(shared)
    for _ in range(left_appends):
        left.append_transactions([])
    for _ in range(right_appends):
        right.append_transactions([])
    return left, right


def without(key):
    def mutate(reply):
        del reply[key]
        return reply
    return mutate


def with_(key, value):
    def mutate(reply):
        reply[key] = value
        return reply
    return mutate


def _block_cases():
    return [
        ("no-blocks", without("blocks")),
        ("blocks-int", with_("blocks", 7)),
        ("blocks-map", with_("blocks", {})),
        ("block-not-a-map", with_("blocks", ["bad"])),
        ("block-gutted", with_("blocks", [
            {"header": {}, "signature": b"", "transactions": []}
        ])),
    ]


def _digest_cases(key):
    return [
        (f"no-{key}", without(key)),
        (f"{key}-int", with_(key, 7)),
        (f"{key}-of-str", with_(key, ["x"])),
        (f"{key}-short", with_(key, [b"short"])),
        (f"{key}-long", with_(key, [b"\x00" * 33])),
        # bytes(300_000_000) would be a 300 MB allocation.
        (f"{key}-of-int", with_(key, [300_000_000])),
    ]


#: reply type -> (protocol, left appends, right appends, hostile variants)
#: where the honest responder answers the pair's first request that way.
REPLIES = {
    "frontier_set": (
        FrontierProtocol(), 2, 3,
        _block_cases() + _digest_cases("frontier") + [
            ("frontier-over-long", with_(
                "frontier",
                [bytes(DIGEST_SIZE)] * (BATCH_BUDGET_BYTES // DIGEST_SIZE + 1),
            )),
            ("more-int", with_("more", 1)),
        ],
    ),
    "dag": (FullExchangeProtocol(), 2, 3, _block_cases()),
    "bloom_blocks": (
        BloomProtocol(), 2, 3, _block_cases() + _digest_cases("frontier"),
    ),
    "height_match": (HeightSkipProtocol(), 0, 0, _digest_cases("frontier")),
    "height_blocks": (
        HeightSkipProtocol(), 2, 3,
        _block_cases() + _digest_cases("frontier"),
    ),
    "sketch_fail": (SketchProtocol(initial_diff=1), 12, 9, [
        ("no-size", without("size")),
        ("size-bool", with_("size", True)),
        ("size-negative", with_("size", -1)),
        ("size-str", with_("size", "9")),
    ]),
    "sketch_blocks": (
        SketchProtocol(), 2, 3,
        _block_cases() + _digest_cases("frontier") + [
            ("no-want", without("want")),
            ("want-int", with_("want", 7)),
            ("want-of-str", with_("want", ["x"])),
        ],
    ),
}

CASES = [
    pytest.param(reply_type, mutate, id=f"{reply_type}-{label}")
    for reply_type, (_, _, _, variants) in REPLIES.items()
    for label, mutate in variants
]


class Swap(InFlight):
    """A link whose first reply of one type is mutated."""

    def __init__(self, reply_type, mutate):
        self._reply_type = reply_type
        self._mutate = mutate
        self.fired = False

    def edit(self, reply: bytes) -> bytes:
        if self.fired:
            return reply
        decoded = wire.decode(reply)
        if decoded["type"] != self._reply_type:
            return reply
        self.fired = True
        return wire.encode(self._mutate(decoded))


def _assert_torn(stats, left, before):
    assert stats.interrupted and not stats.converged
    assert stats.blocks_pulled == 0
    assert left.state_digest() == before


@pytest.mark.parametrize("reply_type,mutate", CASES)
def test_hostile_reply_tears_the_session(reply_type, mutate):
    protocol, left_n, right_n, _ = REPLIES[reply_type]
    left, right = _pair(left_n, right_n)
    before = left.state_digest()
    hostile = Swap(reply_type, mutate)
    # Anything but what the anti-entropy loop counts as an interrupted
    # session escapes over_loopback() and fails the test.
    stats = over_loopback(protocol, left, right, hostile)
    assert hostile.fired
    _assert_torn(stats, left, before)
    # The replica is unharmed: an honest session still converges.
    assert over_loopback(protocol, left, right).converged


@pytest.mark.parametrize("mutate", [
    pytest.param(without("blocks"), id="no-blocks"),
    pytest.param(with_("blocks", 7), id="blocks-int"),
    pytest.param(with_("blocks", ["bad"]), id="block-not-a-map"),
])
def test_hostile_repair_fetch_reply(mutate):
    """``blocks`` answers Bloom's second request: hide every block from
    the first reply so the initiator must fetch the frontier by hash."""
    left, right = _pair(2, 3)
    before = left.state_digest()
    fetch = Swap("blocks", mutate)
    hide = Swap("bloom_blocks", with_("blocks", []))
    stats = over_loopback(
        BloomProtocol(), left, right, lambda end: hide(fetch(end))
    )
    assert hide.fired and fetch.fired
    _assert_torn(stats, left, before)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("reply", [
    pytest.param({"type": "error", "reason": "no"}, id="error"),
    pytest.param({"type": "surprise", "blocks": []}, id="unexpected-type"),
    pytest.param({"no_type": 1}, id="untyped"),
    pytest.param("not a map", id="not-a-map"),
])
def test_first_reply_of_every_protocol(name, reply):
    left, right = _pair(2, 3)
    before = left.state_digest()
    requests = []

    class Hostile(InFlight):
        async def send(self, payload: bytes) -> None:
            requests.append(payload)
            await super().send(payload)

        def edit(self, _reply: bytes) -> bytes:
            return wire.encode(reply)

    stats = over_loopback(PROTOCOLS[name](), left, right, Hostile())
    assert len(requests) == 1
    _assert_torn(stats, left, before)


class FetchReplies(InFlight):
    """A link that answers each ``get_blocks`` with what
    *answer(call number)* returns instead of what was asked for."""

    def __init__(self, answer):
        self._answer = answer
        self.fetches = 0

    def edit(self, reply: bytes) -> bytes:
        if wire.decode(reply)["type"] != "blocks":
            return reply
        self.fetches += 1
        return wire.encode({
            "type": "blocks",
            "blocks": [block.to_wire() for block in self._answer(self.fetches)],
        })


def _assert_pull_gave_up(stats, left, right):
    assert not stats.converged and not stats.interrupted
    assert stats.blocks_pushed == 0
    assert over_loopback(FrontierProtocol(), left, right).converged


def test_responder_with_nothing_deeper_ends_the_pull():
    """The first reply offers a tip whose parent the initiator lacks;
    the fetch of that parent comes back empty.  Nothing can bridge the
    gap, so the pull ends unconverged — not after ``max_level`` round
    trips."""
    left, right = _pair(1, 3)
    before = left.state_digest()
    hostile = FetchReplies(lambda n: [])
    stats = over_loopback(FrontierProtocol(), left, right, hostile)
    assert hostile.fetches == 1
    assert stats.rounds == 2
    assert stats.blocks_pulled == 0
    assert left.state_digest() == before
    _assert_pull_gave_up(stats, left, right)


def test_parents_that_never_arrive_stop_at_the_round_cap():
    """Every fetch is answered with a well-signed block that names yet
    another unknown parent: only the ``max_level`` cap ends that."""
    left, right = _pair(1, 3)
    before = left.state_digest()
    member = Deployment().keys[2]

    def orphan(n):
        return [Block.create(member, [Hash.of_value(n)], 5_000 + n)]

    hostile = FetchReplies(orphan)
    stats = over_loopback(FrontierProtocol(max_level=7), left, right, hostile)
    assert stats.rounds == 7 and hostile.fetches == 6
    assert stats.blocks_pulled == 0
    assert left.state_digest() == before
    _assert_pull_gave_up(stats, left, right)


class ListExtra(InFlight):
    """A link that adds *extra* to the ``hashes`` of the reply to the
    request that carried the skip sample."""

    def __init__(self, extra):
        self._extra = extra
        self.fired = False

    def edit(self, reply: bytes) -> bytes:
        decoded = wire.decode(reply)
        if "hashes" not in decoded:
            return reply
        self.fired = True
        decoded["hashes"] = sorted(decoded["hashes"] + self._extra)
        return wire.encode(decoded)


def test_listed_hashes_that_never_arrive_end_the_pull_one_round_later():
    """The reply to the skip sample names blocks the responder never
    delivers: the fetch of them comes back empty and the pull ends
    there, unconverged — not after ``max_level`` round trips."""
    left, right = _pair(1, 3)
    lie = ListExtra([Hash.of_value(n).digest for n in range(5)])
    stats = over_loopback(FrontierProtocol(), left, right, lie)
    assert lie.fired
    # Tip, two levels (the second with the sample), the vain fetch.
    assert stats.rounds == 4
    assert stats.blocks_pulled == 3 and stats.duplicate_blocks == 0
    _assert_pull_gave_up(stats, left, right)


class SampleSwap(InFlight):
    """A link that replaces the initiator's skip sample on its way out."""

    def __init__(self, sample):
        self._sample = sample
        self.fired = False

    async def send(self, payload: bytes) -> None:
        decoded = wire.decode(payload)
        if isinstance(decoded, dict) and "sample" in decoded:
            self.fired = True
            decoded["sample"] = self._sample
            payload = wire.encode(decoded)
        await super().send(payload)


def test_sample_of_unknown_hashes_still_converges():
    """Sixty-four hashes the responder never saw cut nothing: the list
    names the whole history under the asked-for blocks, the initiator
    fetches only what it lacks, and the pull converges."""
    left, right = _pair(2, 12)
    swap = SampleSwap([Hash.of_value(n).digest for n in range(64)])
    stats = over_loopback(FrontierProtocol(), left, right, swap)
    assert swap.fired
    assert stats.converged and stats.rounds == 4
    assert stats.blocks_pulled == 12 and stats.duplicate_blocks == 0
    assert left.dag.hashes() == right.dag.hashes()


def test_blocks_nobody_asked_for_are_merged_or_dropped():
    """An unasked block goes through ``merge_blocks`` like any batch — a
    valid one with its parents held lands, an orphan is dropped with the
    session — and neither can mark the session converged."""
    left, right = _pair(1, 3)
    deployment = Deployment()
    stray = deployment.node(2).append_transactions([])
    orphan = Block.create(deployment.keys[3], [Hash.of_value(0)], 5_000)
    hostile = FetchReplies(lambda n: [stray, orphan] if n == 1 else [])
    stats = over_loopback(FrontierProtocol(), left, right, hostile)
    assert hostile.fetches == 2
    assert stats.blocks_pulled == 1 and left.has_block(stray.hash)
    assert not left.has_block(orphan.hash)
    _assert_pull_gave_up(stats, left, right)


class OnePeer:
    """A peer manager with one peer, reconnected on demand, whose
    responder answers every request with ``frontier_set`` sans blocks."""

    def __init__(self):
        self._end = None
        self.servers = []
        self.ends = []

    def connected_peers(self):
        return ["evil"]

    def connection(self, name):
        if self._end is None or self._end.closed:
            self._end, far_end = stream_pair()
            self.ends += [self._end, far_end]
            self.servers.append(asyncio.ensure_future(self._serve(far_end)))
        return self._end

    async def close(self):
        """Close both ends of every connection made."""
        for end in self.ends:
            await end.close()

    @staticmethod
    async def _serve(transport):
        try:
            while True:
                await transport.recv()
                await transport.send(
                    wire.encode({"type": "frontier_set",
                                 "frontier": [bytes(DIGEST_SIZE)]})
                )
        except Exception:
            return


def test_antientropy_loop_outlives_a_hostile_peer():
    left, _ = _pair(2, 3)
    before = left.state_digest()
    peers = OnePeer()
    loop = AntiEntropyLoop(left, peers, interval_s=0.01, seed=1)

    async def scenario():
        task = asyncio.ensure_future(loop.run())
        deadline = asyncio.get_running_loop().time() + 5.0
        while (loop.sessions_interrupted < 2 and not task.done()
               and asyncio.get_running_loop().time() < deadline):
            await asyncio.sleep(0.01)
        died = task.done()
        for pending in (task, *peers.servers):
            pending.cancel()
        await asyncio.gather(task, *peers.servers, return_exceptions=True)
        await peers.close()
        return died

    assert not asyncio.run(scenario()), "the gossip task died"
    # A second tick ran after the first hostile session.
    assert loop.sessions_interrupted >= 2
    assert loop.sessions_completed == 0
    assert left.state_digest() == before
