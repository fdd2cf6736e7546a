"""The paper's three motivating applications (S15, §II).

* :mod:`repro.apps.health` — disaster response: a use-based-privacy
  tamperproof log of health-record access requests, with record release
  gated on proof-of-witness (§II-A, §V).
* :mod:`repro.apps.agriculture` — digital agriculture: farm-to-fork
  provenance of food items across intermittently connected participants
  (§II-B).
* :mod:`repro.apps.maritime` — maritime black box: encrypted telemetry
  gossiped to lifeboat nodes during a capsizing event (§II-C).
"""

from repro.apps.agriculture import ProvenanceLedger
from repro.apps.health import HealthAccessLedger, RecordVault
from repro.apps.maritime import BlackBoxRecorder, recover_voyage_log

__all__ = [
    "BlackBoxRecorder",
    "HealthAccessLedger",
    "ProvenanceLedger",
    "RecordVault",
    "recover_voyage_log",
]
