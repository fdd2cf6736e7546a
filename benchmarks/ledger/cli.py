"""Command line of the perf ledger.

Two front doors share this module:

* ``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
  --trace 0|1`` — the driver's contract: one workload, one JSON object
  on the last line of standard output;
* ``PYTHONPATH=src python -m benchmarks.ledger run|noise|compare`` — the
  human's: all four workloads, tables, the regression gate.

Either way each workload runs in a child process of its own, one at a
time; the parent only starts children, waits for them and adds up.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import subprocess
import sys
from typing import Optional

from benchmarks.ledger.metrics import (
    END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
)

RUN_PY = pathlib.Path(__file__).resolve().parent / "run.py"
CHILD_TIMEOUT_S = 170


# -- the child: one workload, one pass ---------------------------------------

def child_main(args) -> int:
    import importlib

    from benchmarks.ledger.common import OUT_DIR, WorkloadFailure
    from benchmarks.ledger.harness import Config

    module = importlib.import_module(f"benchmarks.ledger.{args.workload}")
    cfg = Config(args.seed, args.seconds, traced=args.traced,
                 smoke=args.smoke, share=args.share)
    try:
        runner = module.run(cfg)
        record = asyncio.run(runner) if asyncio.iscoroutine(runner) else runner
    except WorkloadFailure as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if cfg.recorder is not None:
        cfg.recorder.write(
            str(OUT_DIR / "spans.jsonl"),
            {"workload": args.workload, "seed": args.seed},
        )
    print(json.dumps(record, sort_keys=True))
    return 0


def _spawn(workload: str, seed: int, seconds: float, *, traced: bool,
           smoke: bool, share: float = 1.0) -> dict:
    command = [
        sys.executable, str(RUN_PY), "--child", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--share", str(share),
    ]
    if traced:
        command.append("--traced")
    if smoke:
        command.append("--smoke")
    # A fixed hash seed: set and dict orders (and with them a few per
    # cent of CPU) would otherwise differ from one child to the next.
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if done.returncode != 0:
        raise SystemExit(
            f"error: {workload} child exited with {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, *, trace: bool,
                 smoke: bool = False) -> dict:
    """One workload's record.  End-to-end numbers always come from an
    untraced child; with *trace* an untraced and a traced child run at
    half the work each, and the difference between their calibrated CPU
    per block is ``bench.trace_overhead``."""
    if not trace:
        return _spawn(workload, seed, seconds, traced=False, smoke=smoke)
    plain = _spawn(workload, seed, seconds, traced=False, smoke=smoke,
                   share=0.5)
    traced = _spawn(workload, seed, seconds, traced=True, smoke=smoke,
                    share=0.5)
    base = plain["end_to_end"]["cpu_ms_per_block"]
    traced["per_layer"]["bench.trace_overhead"] = (
        traced["end_to_end"]["cpu_ms_per_block"] / base - 1.0 if base else 0.0
    )
    traced["untraced_half"] = plain["end_to_end"]
    return traced


# -- printing ----------------------------------------------------------------

def print_record(record: dict, out=sys.stderr) -> None:
    tag = "  [smoke: not comparable]" if record["smoke"] else ""
    print(
        f"== {record['workload']}  seed={record['seed']} "
        f"backend={record['backend']} nproc={record['nproc']} "
        f"python={record['python']}{tag}", file=out,
    )
    samples = record["samples"]
    for name, (unit, bound) in END_TO_END.items():
        count = samples.get(name)
        note = f"  n={count}" if count is not None else ""
        print(f"  {name:<24}{record['end_to_end'][name]:>14.4f} {unit:<6}"
              f"(bound {bound:.0%}){note}", file=out)
    print(
        f"  ops_attempted={record['ops_attempted']} "
        f"ops_failed={record['ops_failed']} slices={samples['slices']} "
        f"deliveries={samples['block_deliveries']} "
        f"window={record['window']['raw_wall_s']:.2f}s raw / "
        f"{record['window']['cal_wall_s']:.2f}s calibrated "
        f"spin={record['host']['host.ref_spin_ms']:.2f}ms",
        file=out,
    )
    for key, value in sorted(record.get("extra", {}).items()):
        if not isinstance(value, (dict, list)):
            print(f"  {key}={value}", file=out)
    layers = record.get("per_layer")
    if layers:
        for name, (unit, _better) in PER_LAYER.items():
            print(f"  {name:<34}{layers.get(name, 0.0):>14.4f} {unit}",
                  file=out)


def contract_line(record: dict, trace: bool) -> str:
    if trace:
        layers = record["per_layer"]
        metrics = {
            name: {"value": layers.get(name, 0.0), "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": record["end_to_end"][name], "unit": unit}
            for name, (unit, _bound) in END_TO_END.items()
        }
    return json.dumps({
        "correct": record["ops_failed"] == 0,
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": metrics,
    })


# -- front doors -------------------------------------------------------------

def contract_main(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--share", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    record = run_workload(args.workload, args.seed, args.seconds,
                          trace=bool(args.trace), smoke=args.smoke)
    print_record(record)
    print(contract_line(record, bool(args.trace)))
    return 0 if record["ops_failed"] == 0 else 1


def main(argv: Optional[list] = None) -> int:
    from benchmarks.ledger import report

    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the workloads, print every metric")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=RUN_SECONDS)
    run.add_argument("--trace", action="store_true")
    run.add_argument("--smoke", action="store_true")
    run.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    run.add_argument("--json", help="also write the records to this file")

    noise = sub.add_parser("noise", help="repeat the benchmark; gate on gaps")
    noise.add_argument("--sets", type=int, default=2)
    noise.add_argument("--runs", type=int, default=3)
    noise.add_argument("--seed", type=int, default=0)
    noise.add_argument("--seconds", type=float, default=RUN_SECONDS)
    noise.add_argument("--smoke", action="store_true")
    noise.add_argument("--same-seed", action="store_true",
                       help="one seed for every run (counts then repeat "
                            "exactly); default: another seed per run, as "
                            "the driver's acceptance check does")
    noise.add_argument("--out", help="write the markdown report here")
    noise.add_argument("--json", help="write every record to this run file")

    compare = sub.add_parser("compare", help="gate B.json against A.json")
    compare.add_argument("parent")
    compare.add_argument("change")

    args = parser.parse_args(argv)
    if args.command == "run":
        records = []
        for workload in args.workload or list(WORKLOADS):
            record = run_workload(workload, args.seed, args.seconds,
                                  trace=args.trace, smoke=args.smoke)
            print_record(record, out=sys.stdout)
            records.append(record)
        if args.json:
            report.write_runs(args.json, [records])
        return 0 if all(r["ops_failed"] == 0 for r in records) else 1
    if args.command == "noise":
        return report.noise(args)
    return report.compare(args.parent, args.change)
