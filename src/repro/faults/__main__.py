"""Standalone chaos harness runner — what the CI chaos jobs invoke.

Examples::

    python -m repro.faults --seeds 0,1,2            # PR gate: fixed seeds
    python -m repro.faults --random 25 --base-seed 7 --out chaos-artifacts

Every failing seed writes ``chaos_seed_<seed>.json`` (the full fault
plan plus the violated invariants) to ``--out``; replay it locally with
``python -m repro.faults --plan chaos_seed_<seed>.json`` or feed the
embedded plan to ``simulate --faults``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.faults.invariants import run_chaos
from repro.faults.plan import FaultPlan


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Run the chaos invariant harness.",
        allow_abbrev=False,
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--seeds", help="comma-separated fixed seeds, e.g. 0,1,2"
    )
    group.add_argument(
        "--random", type=int, metavar="N",
        help="run N randomized seeds starting at --base-seed",
    )
    group.add_argument(
        "--plan", metavar="PATH",
        help="replay one saved plan (a chaos artifact or plan JSON)",
    )
    parser.add_argument(
        "--base-seed", type=int, default=0,
        help="first seed for --random (default 0)",
    )
    parser.add_argument(
        "--nodes", type=int, default=5, help="fleet size (default 5)"
    )
    parser.add_argument(
        "--duration", type=int, default=25_000,
        help="faulty phase length in sim ms (default 25000)",
    )
    parser.add_argument(
        "--out", metavar="DIR",
        help="directory for failing-seed artifacts (created on demand)",
    )
    parser.add_argument(
        "--trace-dir", metavar="DIR", dest="trace_dir",
        help="write one JSONL trace per seed to DIR "
             "(chaos_seed_<seed>.jsonl) for `vegvisir trace-merge` "
             "and `vegvisir analyze`",
    )
    return parser


def _load_artifact_plan(path: str) -> tuple[int, FaultPlan]:
    """A --plan file is either a bare plan or a failure artifact."""
    raw = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    if isinstance(raw, dict) and "plan" in raw:
        return int(raw.get("seed", 0)), FaultPlan.from_json(raw["plan"])
    plan = FaultPlan.from_json(raw)
    return plan.seed, plan


def main(argv=None, protocol_factory=None) -> int:
    """Run the harness; *protocol_factory* (a ``Scenario`` one) stands
    in for the shipped protocol, as ``benchmarks/protocols/chaos.py``
    passes a study protocol's."""
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        print(f"error: unrecognized arguments: {' '.join(unknown)}",
              file=sys.stderr)
        return 1
    runs: list[tuple[int, FaultPlan | None]] = []
    if args.seeds is not None:
        runs = [(int(part), None) for part in args.seeds.split(",") if part]
    elif args.random is not None:
        runs = [
            (args.base_seed + offset, None) for offset in range(args.random)
        ]
    else:
        runs = [_load_artifact_plan(args.plan)]
    out_dir = pathlib.Path(args.out) if args.out else None
    trace_dir = pathlib.Path(args.trace_dir) if args.trace_dir else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for seed, plan in runs:
        trace_path = (
            trace_dir / f"chaos_seed_{seed}.jsonl"
            if trace_dir is not None else None
        )
        report = run_chaos(
            seed, node_count=args.nodes, duration_ms=args.duration,
            plan=plan, trace_path=trace_path,
            protocol_factory=protocol_factory,
        )
        print(report.render(), flush=True)
        if not report.ok:
            failures += 1
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                artifact = out_dir / f"chaos_seed_{seed}.json"
                artifact.write_text(
                    json.dumps(report.as_dict(), indent=2, sort_keys=True)
                    + "\n",
                    encoding="utf-8",
                )
                print(f"  artifact: {artifact}", flush=True)
    total = len(runs)
    print(f"chaos: {total - failures}/{total} seeds passed", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
