"""Run files, the noise report and the regression gate.

A run file is ``{"ledger": 1, "runs": [[record, ...], ...]}``: one inner
list per pass over the workloads, one record per workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Iterable

from benchmarks.ledger.metrics import END_TO_END, WORKLOADS


def write_runs(path: str, runs: list[list[dict]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"ledger": 1, "runs": runs}, handle, sort_keys=True)
        handle.write("\n")


def read_runs(path: str) -> list[list[dict]]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("ledger") != 1:
        raise SystemExit(f"error: {path} is not a ledger run file")
    return document["runs"]


def series(runs: Iterable[list[dict]]) -> dict:
    """``{(metric, workload): [value per run]}`` over *runs*."""
    out: dict = {}
    for records in runs:
        for record in records:
            for metric, value in record["end_to_end"].items():
                out.setdefault((metric, record["workload"]), []).append(value)
    return out


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (range when there are
    too few values for quartiles)."""
    middle = statistics.median(values)
    if not middle or len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


def failed_share(runs: Iterable[list[dict]]) -> dict:
    totals: dict = {}
    for records in runs:
        for record in records:
            entry = totals.setdefault(record["workload"], [0, 0])
            entry[0] += record["ops_failed"]
            entry[1] += record["ops_attempted"]
    return {
        workload: failed / attempted if attempted else 0.0
        for workload, (failed, attempted) in totals.items()
    }


def _rows():
    for metric in END_TO_END:
        for workload in WORKLOADS:
            yield metric, workload


# -- compare -----------------------------------------------------------------

def verdict(parent: list[float], change: list[float], bound: float) -> str:
    """All end-to-end metrics are lower-is-better."""
    if max(change) < min(parent):
        clear = "better"
    elif min(change) > max(parent):
        clear = "worse"
    else:
        clear = None
    base = statistics.median(parent)
    shift = (statistics.median(change) - base) / base if base else 0.0
    if max(spread(parent), spread(change)) > bound and clear is None:
        return "unresolved"
    if shift > bound:
        return "worse"
    if shift < -bound:
        return "better"
    return "same"


def compare(parent_path: str, change_path: str, out=sys.stdout) -> int:
    parent_runs, change_runs = read_runs(parent_path), read_runs(change_path)
    parent, change = series(parent_runs), series(change_runs)
    print(f"{'metric':<24}{'workload':<16}{'parent':>12}{'change':>12}"
          f"{'shift':>9}{'bound':>7}  verdict", file=out)
    worse = 0
    for metric, workload in _rows():
        key = (metric, workload)
        if key not in parent or key not in change:
            continue
        bound = END_TO_END[metric][1]
        result = verdict(parent[key], change[key], bound)
        worse += result == "worse"
        base = statistics.median(parent[key])
        new = statistics.median(change[key])
        shift = (new - base) / base if base else 0.0
        print(f"{metric:<24}{workload:<16}{base:>12.4f}{new:>12.4f}"
              f"{shift:>+9.1%}{bound:>7.0%}  {result}", file=out)
    before, after = failed_share(parent_runs), failed_share(change_runs)
    for workload in WORKLOADS:
        if workload in before and workload in after:
            print(f"failed ops {workload:<16}{before[workload]:>12.4%}"
                  f"{after[workload]:>12.4%}", file=out)
            if after[workload] > before[workload]:
                worse += 1
    print(f"{worse} row(s) worse", file=out)
    return 1 if worse else 0


# -- noise -------------------------------------------------------------------

def noise_table(sets: list[list[list[dict]]]) -> tuple[list[str], int]:
    """Markdown rows for per-set medians, the gap between sets and the
    spread; the second value counts the rows outside their bound."""
    per_set = [series(runs) for runs in sets]
    everything = series(run for runs in sets for run in runs)
    lines = [
        "| metric | workload | "
        + " | ".join(f"set {i + 1} median" for i in range(len(sets)))
        + " | gap | max/min | worst spread | bound | |",
        "|---|---|" + "---:|" * (len(sets) + 4) + "---|",
    ]
    outside = 0
    for metric, workload in _rows():
        key = (metric, workload)
        if key not in everything:
            continue
        bound = END_TO_END[metric][1]
        medians = [statistics.median(s[key]) for s in per_set]
        base = medians[0]
        gap = max(abs(m - base) / base for m in medians) if base else 0.0
        values = everything[key]
        ratio = max(values) / min(values) if min(values) else float("inf")
        worst = max(spread(s[key]) for s in per_set)
        # setup_s is exempt from the spread rule (it is gated on the
        # medians only), as in the driver's acceptance check.
        bad = gap > bound or (worst > bound and metric != "setup_s")
        outside += bad
        lines.append(
            f"| `{metric}` | {workload} | "
            + " | ".join(f"{m:.4f}" for m in medians)
            + f" | {gap:.2%} | {ratio:.4f} | {worst:.2%} | {bound:.0%} | "
            + ("OUTSIDE" if bad else "ok") + " |"
        )
    return lines, outside


def noise(args) -> int:
    from benchmarks.ledger.cli import run_workload

    sets = []
    for set_index in range(args.sets):
        runs = []
        for run_index in range(args.runs):
            seed = args.seed
            if not args.same_seed:
                seed += set_index * args.runs + run_index
            records = []
            for workload in WORKLOADS:
                record = run_workload(workload, seed, args.seconds,
                                      trace=False, smoke=args.smoke)
                records.append(record)
                print(f"set {set_index + 1} run {run_index + 1} seed {seed} "
                      f"{workload}: failed {record['ops_failed']}/"
                      f"{record['ops_attempted']}", file=sys.stderr)
            runs.append(records)
        sets.append(runs)
    lines, outside = noise_table(sets)
    first = sets[0][0][0]
    seeds = "one seed" if args.same_seed else "a different seed per run"
    header = [
        f"{args.sets} sets of {args.runs} runs, {seeds} from {args.seed}, "
        f"{args.seconds:g} s runs"
        + (" (smoke: not comparable)" if args.smoke else "")
        + f"; backend {first['backend']}, nproc {first['nproc']}, "
        f"Python {first['python']}.",
        "",
        "`gap` is the largest distance of a set's median from the first "
        "set's, `worst spread` the larger of the sets' quartile distances "
        "over their medians, `max/min` over every run.",
        "",
    ]
    failed = [
        f"- failed ops, {workload}: {share:.4%}"
        for workload, share in failed_share(
            run for runs in sets for run in runs).items()
    ]
    text = "\n".join(header + lines + [""] + failed + [
        "", f"{outside} row(s) outside their bound.", ""])
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    if args.json:
        write_runs(args.json, [run for runs in sets for run in runs])
    return 1 if outside else 0
