"""Self-tests of the ledger harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger`` (outside
tier-1's ``testpaths``: the smoke runs take about half a minute).
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import time

import pytest

from benchmarks.ledger import cli, partition_heal, report, spans
from benchmarks.ledger.calibrate import (
    REF_NOMINAL_S, SYNC_NOMINAL_S, Calibrator,
)
from benchmarks.ledger.common import WorkloadFailure
from benchmarks.ledger.harness import Config
from benchmarks.ledger.metrics import (
    END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]
COUNTS = ("wire_bytes_per_block", "round_trips_per_block")


# -- counts repeat with one seed, move with another --------------------------

def _smoke(workload: str, seed: int) -> dict:
    return cli.run_workload(workload, seed, RUN_SECONDS,
                            trace=False, smoke=True)


@pytest.mark.parametrize(
    "workload", ["partition_heal", "cold_join", "sim_study"]
)
def test_counts_repeat_exactly_for_one_seed(workload):
    first, again, other = (_smoke(workload, seed) for seed in (5, 5, 6))
    assert first["ops_failed"] == again["ops_failed"] == 0
    assert first["counts"] == again["counts"]
    assert first["samples"] == again["samples"]
    for name in COUNTS:
        assert first["end_to_end"][name] == again["end_to_end"][name]
    assert first["counts"] != other["counts"]


# -- calibration -------------------------------------------------------------

def test_calibration_undoes_a_two_times_slower_host():
    def work(seconds):
        return lambda: time.sleep(seconds)

    normal = Calibrator(spin=lambda: REF_NOMINAL_S)
    slow = Calibrator(spin=lambda: 2.0 * REF_NOMINAL_S)
    base = normal.run_slice(work(0.05)).cal_wall_s
    # The same work takes twice as long on the slow host, as does the
    # reference kernel.
    scaled = slow.run_slice(work(0.10)).cal_wall_s
    assert scaled == pytest.approx(base, rel=0.05)
    assert base == pytest.approx(0.05, rel=0.05)


def test_waiting_is_calibrated_by_the_fsync_reference_not_the_spin():
    # A host whose CPU is at nominal speed but whose fsyncs take three
    # times as long: sleeping stands in for the fsync waits of the work.
    cal = Calibrator(spin=lambda: REF_NOMINAL_S,
                     sync=lambda: 3.0 * SYNC_NOMINAL_S)
    piece = cal.run_slice(lambda: time.sleep(0.09))
    assert piece.cpu_s < 0.01
    assert piece.cal_wall_s == pytest.approx(0.03, rel=0.10)
    assert piece.scale == pytest.approx(1.0 / 3.0, rel=0.10)


def test_sampled_call_is_calibrated_by_the_spins_inside_it():
    spins = iter([0.010, 0.030, 0.030, 0.010] + [0.010] * 20)
    cal = Calibrator(spin=lambda: next(spins))

    async def scenario():
        return await cal.run_sampled(asyncio.sleep(0.6))

    piece = asyncio.run(scenario())
    # Edge spins 0.010 and 0.010, two sampler spins of 0.030 inside.
    assert piece.factor == pytest.approx(REF_NOMINAL_S / 0.020, rel=0.01)
    assert len(cal.timer_lag_s) == 2


# -- the span shim -----------------------------------------------------------

def test_shim_restores_every_wrapped_callable():
    recorder = spans.Recorder()
    recorder.install()
    patched = recorder.patched()
    assert len(patched) >= len(spans.TABLE)
    originals = {
        (id(owner), attr): original
        for owner, attr, original in recorder._patches
    }
    for owner, attr in patched:
        current = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is not originals[(id(owner), attr)]
    recorder.restore()
    for owner, attr in patched:
        current = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is originals[(id(owner), attr)]
    assert recorder.patched() == []


def test_shim_patches_from_import_copies():
    import repro.live.protocol as live_protocol
    import repro.reconcile.session as session

    recorder = spans.Recorder()
    original = session.merge_blocks
    recorder.install()
    try:
        assert live_protocol.merge_blocks is session.merge_blocks
        assert session.merge_blocks is not original
    finally:
        recorder.restore()
    assert live_protocol.merge_blocks is original


def test_self_time_on_a_nested_fixture():
    recorder = spans.Recorder()
    recorder.enabled = True

    def inner():
        time.sleep(0.03)

    traced_inner = recorder._wrap("core.inner", inner, None)

    def outer():
        time.sleep(0.02)
        traced_inner()
        traced_inner()

    recorder._wrap("chain.outer", outer, None)()
    outer_span, inner_span = recorder.get("chain.outer"), recorder.get(
        "core.inner")
    assert inner_span.count == 2 and outer_span.count == 1
    assert inner_span.self_s == pytest.approx(0.06, abs=0.01)
    assert outer_span.busy_s == pytest.approx(0.08, abs=0.015)
    assert outer_span.self_s == pytest.approx(0.02, abs=0.01)
    # Self times partition the busy time: shares cannot pass 100 %.
    total = sum(recorder.layer_self_s().values())
    assert total <= outer_span.busy_s + 1e-6
    parents = {span[2]: span[1] for span in recorder.raw}
    ids = {span[2]: span[0] for span in recorder.raw}
    assert parents["core.inner"] == ids["chain.outer"]
    assert parents["chain.outer"] is None


def test_awaited_span_excludes_its_suspensions_from_busy_time():
    recorder = spans.Recorder()
    recorder.enabled = True

    async def waits():
        time.sleep(0.02)          # on-CPU
        await asyncio.sleep(0.05)  # suspended
        return "done"

    traced = recorder._wrap("live.waits", waits, None)
    assert asyncio.run(traced()) == "done"
    span = recorder.get("live.waits")
    assert span.busy_s == pytest.approx(0.02, abs=0.01)
    assert span.wall_s >= 0.07 - 0.005


# -- a failed correctness check fails the run --------------------------------

def test_mismatched_digest_fails_the_workload(monkeypatch):
    from repro.live.node import LiveNode

    monkeypatch.setattr(
        LiveNode, "dag_digest", lambda self: f"never-equal-{id(self)}"
    )
    cfg = Config(seed=1, seconds=RUN_SECONDS, smoke=True)
    with pytest.raises(WorkloadFailure):
        asyncio.run(partition_heal.run(cfg))


def test_run_exits_non_zero_on_failed_ops(monkeypatch, capsys):
    good = _smoke("partition_heal", 2)
    assert cli.contract_line(good, trace=False)
    bad = json.loads(json.dumps(good))
    bad["ops_failed"] = 1
    monkeypatch.setattr(cli, "_spawn", lambda *a, **k: bad)
    assert cli.main(["run", "--smoke", "--workload", "partition_heal"]) == 1
    assert cli.contract_main(
        ["--workload", "partition_heal", "--smoke"]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1
    monkeypatch.setattr(cli, "_spawn", lambda *a, **k: good)
    assert cli.main(["run", "--smoke", "--workload", "partition_heal"]) == 0


# -- the gate ----------------------------------------------------------------

def _runs(record: dict, metric: str, values) -> list:
    out = []
    for value in values:
        copy = json.loads(json.dumps(record))
        copy["end_to_end"][metric] = value
        out.append([copy])
    return out


def test_compare_verdicts(tmp_path):
    base = {
        "workload": "cold_join", "ops_failed": 0, "ops_attempted": 5,
        "end_to_end": {name: 1.0 for name in END_TO_END},
    }
    parent = tmp_path / "a.json"
    report.write_runs(
        str(parent), _runs(base, "write_p50_ms", [1.0, 1.01, 0.99, 1.0]))
    bound = END_TO_END["write_p50_ms"][1]
    worse, better = 1.0 + 1.2 * bound, 1.0 - 1.2 * bound
    cases = {
        "same": [1.02, 1.03, 1.01, 1.02],
        "worse": [worse, worse + 0.01, worse - 0.01, worse],
        "better": [better, better + 0.01, better - 0.01, better],
        "unresolved": [0.6, 1.0, 1.4, 1.8],
    }
    for want, values in cases.items():
        change = tmp_path / f"{want}.json"
        report.write_runs(str(change), _runs(base, "write_p50_ms", values))
        lines = []

        class Out:
            def write(self, text):
                lines.append(text)

        code = report.compare(str(parent), str(change), out=Out())
        row = next(l for l in "".join(lines).splitlines()
                   if l.startswith("write_p50_ms"))
        assert row.endswith(want), row
        assert code == (1 if want == "worse" else 0)


def test_benchmark_json_matches_the_catalogue():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["bound"]) for m in document["end_to_end"]
    } == END_TO_END
    assert all(m["better"] == "lower" for m in document["end_to_end"])
    assert {
        m["name"]: (m["unit"], m["better"]) for m in document["per_layer"]
    } == PER_LAYER
    assert document["run_seconds"] == RUN_SECONDS
