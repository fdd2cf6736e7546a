"""Trace bus and sink tests, including bit-for-bit reproducibility."""

import json

from repro.obs import Observability
from repro.obs.trace import (
    JsonlFileSink,
    RingBufferSink,
    TraceBus,
    TraceEvent,
    read_jsonl,
)
from repro.crypto.sha import Hash


class TestTraceEvent:
    def test_canonical_json(self):
        event = TraceEvent(42, "contact.outcome",
                           {"node": 1, "outcome": "ok"})
        assert event.to_json() == (
            '{"node":1,"outcome":"ok","t":42,"type":"contact.outcome"}'
        )

    def test_bytes_and_hashes_hex_encoded(self):
        digest = Hash.of_bytes(b"block")
        event = TraceEvent(0, "block.created",
                           {"block": digest, "raw": b"\x01\x02"})
        record = event.as_dict()
        assert record["block"] == digest.hex()
        assert record["raw"] == "0102"

    def test_sets_sorted_tuples_listed(self):
        event = TraceEvent(0, "partition.change",
                           {"groups": ({3, 1}, (2,))})
        assert event.as_dict()["groups"] == [[1, 3], [2]]


class TestSinks:
    def test_ring_buffer_keeps_latest(self):
        sink = RingBufferSink(capacity=2)
        for index in range(5):
            sink.write(TraceEvent(index, "tick", {}))
        assert [event.time_ms for event in sink.events()] == [3, 4]
        assert sink.total_written == 5

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlFileSink(path)
        sink.write(TraceEvent(1, "a", {"x": 1}))
        sink.write(TraceEvent(2, "b", {"y": "z"}))
        sink.close()
        records = list(read_jsonl(path))
        assert records == [
            {"t": 1, "type": "a", "x": 1},
            {"t": 2, "type": "b", "y": "z"},
        ]


class TestTraceBus:
    def test_stamps_with_clock(self):
        ticks = iter([100, 250])
        ring = RingBufferSink(10)
        bus = TraceBus(clock=lambda: next(ticks), sinks=[ring])
        bus.emit("a")
        bus.emit("b")
        assert [event.time_ms for event in ring.events()] == [100, 250]

    def test_default_clock_is_sequence_not_wall_time(self):
        ring = RingBufferSink(10)
        bus = TraceBus(sinks=[ring])
        bus.emit("a")
        bus.emit("b")
        assert [event.time_ms for event in ring.events()] == [0, 1]

    def test_fan_out_to_all_sinks(self, tmp_path):
        ring = RingBufferSink(10)
        file_sink = JsonlFileSink(tmp_path / "t.jsonl")
        bus = TraceBus(sinks=[ring, file_sink])
        bus.emit("tick", n=1)
        bus.close()
        assert len(ring) == 1
        assert len(list(read_jsonl(tmp_path / "t.jsonl"))) == 1


class TestObservability:
    def test_disabled_emit_reaches_no_sink(self):
        ring = RingBufferSink(10)
        observability = Observability(enabled=False, sinks=[ring])
        observability.emit("tick")
        assert ring.events() == []

    def test_enabled_emit_delivers(self):
        ring = RingBufferSink(10)
        observability = Observability(sinks=[ring])
        observability.emit("tick", n=3)
        assert observability.events()[0].fields == {"n": 3}


class TestSimulationTraceDeterminism:
    def _run(self, path):
        from repro.sim import Scenario, Simulation

        scenario = Scenario(
            node_count=5, duration_ms=12_000, append_interval_ms=3_000,
            seed=9, trace_path=path,
        )
        simulation = Simulation(scenario).run()
        simulation.run_quiescence(5_000)
        simulation.close()
        return path.read_bytes()

    def test_same_seed_same_bytes(self, tmp_path):
        first = self._run(tmp_path / "a.jsonl")
        second = self._run(tmp_path / "b.jsonl")
        assert first == second
        assert first  # non-empty

    def test_timestamps_come_from_sim_clock(self, tmp_path):
        raw = self._run(tmp_path / "c.jsonl")
        times = [json.loads(line)["t"] for line in raw.splitlines()]
        assert times == sorted(times)
        assert times[-1] <= 17_000  # sim ms, not wall-clock epoch ms
