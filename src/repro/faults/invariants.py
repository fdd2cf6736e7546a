"""The chaos invariant harness.

:func:`run_chaos` runs one fleet under a (usually randomized)
:class:`~repro.faults.plan.FaultPlan` with the message-level session
model, then checks the safety and liveness invariants the paper's
design promises even over unreliable channels:

* **parent-closed** — no replica ever holds a block whose parent it is
  missing.  Sessions merge blocks in parent-closed batches and a torn
  session discards its partial batch, so this must survive any amount
  of message loss, crash, or corruption.
* **corruption accounting** — every byte-corrupted frame was rejected
  somewhere: ``corrupted == wire_decode_errors + validation_rejects``
  exactly (canonicity makes the classification exhaustive), and no
  corrupted block was ever accepted into a replica.
* **crash recovery** — every crashed node came back holding a subset of
  its pre-crash replica (plus at least the genesis block), rebuilt from
  its on-disk block store through full validation.
* **convergence** — once faults cease, continued gossip drives every
  replica to the same state digest (identical DAG frontier).  This is
  the liveness half: faults may slow dissemination arbitrarily but must
  never wedge it.

A violated invariant is reported, not raised — the harness's callers
(``python -m repro.faults``, the chaos CI job) decide how to surface
failures, and a failing seed's plan is serialized so the exact run can
be replayed anywhere.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.plan import FaultPlan


class ChaosReport:
    """The outcome of one chaos run, with enough context to replay it."""

    def __init__(self, seed: int, plan: FaultPlan):
        self.seed = seed
        self.plan = plan
        self.violations: list[str] = []
        self.counters: dict = {}
        self.metrics: dict = {}
        self.converged = False
        self.converge_ms: Optional[int] = None
        self.blocks_total = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def violation(self, message: str) -> None:
        self.violations.append(message)

    def as_dict(self) -> dict:
        """JSON-ready form; what the nightly job uploads on failure."""
        return {
            "seed": self.seed,
            "ok": self.ok,
            "violations": list(self.violations),
            "converged": self.converged,
            "converge_ms": self.converge_ms,
            "blocks_total": self.blocks_total,
            "fault_counters": dict(self.counters),
            "plan": self.plan.to_json(),
        }

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"[{status}] chaos seed={self.seed} "
            f"blocks={self.blocks_total} "
            f"converged={'yes' if self.converged else 'NO'}"
            + (f" (+{self.converge_ms} ms drain)"
               if self.converge_ms is not None else ""),
            f"  faults: " + ", ".join(
                f"{key}={value}"
                for key, value in sorted(self.counters.items())
                if value
            ),
        ]
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


def check_parent_closed(sim, report: ChaosReport) -> None:
    """No replica may hold a block whose parent it is missing."""
    for node_id in sorted(sim.fleet.nodes):
        dag = sim.fleet.nodes[node_id].dag
        held = dag.hashes()
        for block_hash in held:
            for parent in dag.get(block_hash).parents:
                if parent not in held:
                    report.violation(
                        f"node {node_id} holds {block_hash.hex()[:12]} "
                        f"but not its parent {parent.hex()[:12]}"
                    )


def check_corruption_accounting(counters, report: ChaosReport) -> None:
    """Every corrupted frame rejected, in exactly one bucket; none
    accepted."""
    classified = counters.wire_decode_errors + counters.validation_rejects
    if counters.corrupted != classified:
        report.violation(
            f"corruption accounting leak: corrupted={counters.corrupted} "
            f"!= wire_decode_errors={counters.wire_decode_errors} + "
            f"validation_rejects={counters.validation_rejects}"
        )
    if counters.corrupt_blocks_accepted:
        report.violation(
            f"{counters.corrupt_blocks_accepted} corrupted block(s) were "
            "ACCEPTED by a replica's validation pipeline"
        )


def check_crash_recovery(sim, report: ChaosReport) -> None:
    """Crashed nodes recovered their pre-crash prefix from disk."""
    controller = sim.crash_controller
    if controller is None:
        return
    genesis_hash = sim.fleet.genesis.hash
    for record in controller.records:
        if record.recovered is None:
            report.violation(
                f"node {record.node} crashed at {record.at_ms} ms but "
                "never restarted"
            )
            continue
        if genesis_hash not in record.recovered:
            report.violation(
                f"node {record.node} restarted without its genesis block"
            )
        extra = record.recovered - record.pre_crash
        if extra:
            report.violation(
                f"node {record.node} recovered {len(extra)} block(s) it "
                "never held before the crash"
            )


def drain_to_convergence(sim, report: ChaosReport,
                         chunk_ms: int = 5_000,
                         budget_ms: int = 120_000) -> None:
    """Run fault-free quiescence until all replicas agree (or budget).

    Faults have ceased (``plan.cease_ms``) and every crash has
    restarted by the time this runs, so continued gossip must converge;
    a run that exhausts the budget violates the liveness invariant.
    """
    drained = 0
    while True:
        if sim.converged(node_ids=sorted(sim.fleet.nodes)):
            report.converged = True
            report.converge_ms = drained
            return
        if drained >= budget_ms:
            digests = {
                node_id:
                    sim.fleet.nodes[node_id].state_digest().hex()[:12]
                for node_id in sorted(sim.fleet.nodes)
            }
            report.violation(
                f"no convergence after {drained} ms of fault-free "
                f"drain; digests={digests}"
            )
            return
        sim.run_quiescence(chunk_ms)
        drained += chunk_ms


def run_chaos(
    seed: int,
    node_count: int = 5,
    duration_ms: int = 25_000,
    plan: Optional[FaultPlan] = None,
    drain_budget_ms: int = 120_000,
    trace_path=None,
    protocol_factory=None,
) -> ChaosReport:
    """One full chaos run: simulate under faults, then check invariants.

    *protocol_factory* is passed through to ``Scenario`` (``None`` runs
    the shipped frontier protocol); the nightly sweep hands in the study
    protocols' so they face the same loss/corruption/crash matrix.
    """
    from repro.sim.runner import Simulation
    from repro.sim.scenario import Scenario

    if plan is None:
        plan = FaultPlan.randomized(seed, node_count, duration_ms)
    report = ChaosReport(seed, plan)
    scenario = Scenario(
        node_count=node_count,
        duration_ms=duration_ms,
        session_model="message",
        seed=seed,
        faults=plan,
        trace_path=trace_path,
        protocol_factory=protocol_factory,
    )
    sim = Simulation(scenario)
    try:
        sim.run()
        drain_to_convergence(sim, report, budget_ms=drain_budget_ms)
        counters = sim.fault_injector.counters
        check_parent_closed(sim, report)
        check_corruption_accounting(counters, report)
        check_crash_recovery(sim, report)
        report.counters = counters.as_dict()
        report.metrics = sim.metrics.as_dict()
        report.blocks_total = sim.total_blocks()
    finally:
        sim.close()
    return report
