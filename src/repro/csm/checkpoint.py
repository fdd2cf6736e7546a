"""CSM checkpoints: dump and restore full state-machine state.

A replica that offloaded old block *bodies* (§IV-I) cannot rebuild its
CRDT state by replay — the transactions left the device.  A checkpoint
captures everything the CSM holds — protocol events, per-block causal
views, the membership set, every CRDT instance (via
:mod:`repro.crdt.snapshot`, tombstones included), and per-block
transaction verdicts — as one wire-encodable value, so state survives
restarts independently of block bodies.

Restore produces a machine that is behaviourally identical: same state
digest, same verdicts for already-replayed blocks, and identical
treatment of any block replayed afterwards.
"""

from __future__ import annotations

from typing import Optional

from repro import wire
from repro.crdt.collection import CreateRecord
from repro.crdt.schema import Schema
from repro.crdt.snapshot import dump_state, restore_crdt
from repro.crypto.ed25519 import PublicKey
from repro.crypto.sha import Hash
from repro.csm.errors import CSMError
from repro.csm.machine import CSMachine, TxOutcome, _Event
from repro.csm.permissions import ChainPolicy
from repro.membership.certificate import Certificate

CHECKPOINT_VERSION = 1


def _dump_order_key(key: tuple) -> list:
    return [key[0], key[1], key[2]]


def _load_order_key(data: list) -> tuple:
    return (data[0], bytes(data[1]), bytes(data[2]))


def dump_checkpoint(machine: CSMachine) -> dict:
    """Serialize a CSM to a wire-encodable checkpoint value."""
    events = []
    for event in machine._events:
        events.append({
            "kind": event.kind,
            "cert": (
                event.certificate.to_wire()
                if event.certificate is not None else None
            ),
            "record": (
                {
                    "name": event.record.name,
                    "type": event.record.type_name,
                    "schema": event.record.schema.to_wire(),
                    "order_key": _dump_order_key(event.record.order_key),
                    "creator": event.record.creator.digest,
                    "op_id": event.record.op_id,
                }
                if event.record is not None else None
            ),
        })
    collection = machine._collection
    return {
        "version": CHECKPOINT_VERSION,
        "ca_key": machine._ca_key.data,
        "events": events,
        "visible": [
            [block_hash.digest, sorted(view)]
            for block_hash, view in sorted(
                machine._visible.items(), key=lambda kv: kv[0].digest
            )
        ],
        "users": dump_state(machine._users),
        "instances": [
            [op_id, dump_state(collection.instance(op_id))]
            for op_id in sorted(collection._records)
        ],
        "outcomes": [
            [
                block_hash.digest,
                [
                    [o.crdt_name, o.op, o.applied, o.reason]
                    for o in outcomes
                ],
            ]
            for block_hash, outcomes in sorted(
                machine._outcomes.items(), key=lambda kv: kv[0].digest
            )
        ],
        "applied": machine._applied_count,
        "rejected": machine._rejected_count,
    }


def restore_checkpoint(data: dict,
                       policy: Optional[ChainPolicy] = None) -> CSMachine:
    """Rebuild a CSM from :func:`dump_checkpoint` output."""
    try:
        if data["version"] != CHECKPOINT_VERSION:
            raise CSMError(
                f"unsupported checkpoint version {data['version']}"
            )
        machine = CSMachine(PublicKey(data["ca_key"]), policy)
        records: dict[bytes, CreateRecord] = {}
        for entry in data["events"]:
            certificate = (
                Certificate.from_wire(entry["cert"])
                if entry["cert"] is not None else None
            )
            record = None
            if entry["record"] is not None:
                raw = entry["record"]
                record = CreateRecord(
                    name=raw["name"],
                    type_name=raw["type"],
                    schema=Schema.from_wire(raw["schema"]),
                    order_key=_load_order_key(raw["order_key"]),
                    creator=Hash(raw["creator"]),
                    op_id=raw["op_id"],
                )
                records[record.op_id] = record
            machine._events.append(
                _Event(entry["kind"], certificate=certificate,
                       record=record)
            )
        # One object per distinct view, as replay leaves it: blocks
        # between two events share it, and with it one resolution.
        interned: dict[frozenset[int], frozenset[int]] = {}
        for digest, view in data["visible"]:
            view = frozenset(view)
            machine._visible[Hash(digest)] = interned.setdefault(view, view)
        # Membership 2P-set, with full tombstones.
        machine._users = restore_crdt(data["users"])
        # Collection: re-register records, then swap in the snapshots.
        for op_id, snapshot in data["instances"]:
            op_id = bytes(op_id)
            record = records.get(op_id)
            if record is None:
                raise CSMError("instance without a creation event")
            machine._collection.register_create(record)
            machine._collection._instances[op_id] = restore_crdt(snapshot)
        for digest, outcome_rows in data["outcomes"]:
            machine._outcomes[Hash(digest)] = [
                TxOutcome(crdt_name, op, applied, reason)
                for crdt_name, op, applied, reason in outcome_rows
            ]
        machine._applied_count = data["applied"]
        machine._rejected_count = data["rejected"]
        return machine
    except (KeyError, TypeError, ValueError) as exc:
        raise CSMError(f"malformed checkpoint: {exc}") from exc


def checkpoint_bytes(machine: CSMachine) -> bytes:
    """Checkpoint as canonical bytes (for storage)."""
    return wire.encode(dump_checkpoint(machine))


def restore_checkpoint_bytes(
    data: bytes, policy: Optional[ChainPolicy] = None
) -> CSMachine:
    try:
        decoded = wire.decode(data)
    except wire.DecodeError as exc:
        raise CSMError(f"undecodable checkpoint: {exc}") from exc
    return restore_checkpoint(decoded, policy)
