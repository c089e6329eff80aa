"""Injectable fault behaviors for adversary parties.

A behavior is attached to every node of an adversary party; correct parties
carry none. Behaviors are deliberately simple and deterministic so runs
replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CRASH = "crash"
CENSOR_TX = "censor_tx"
INJECT_BOGUS = "inject_bogus"
WITHHOLD_BAS = "withhold_bas"
SILENT_SECONDARY = "silent_secondary"
EQUIVOCATE_BATCH = "equivocate_batch"
FALSE_COMPLAINT = "false_complaint"

BEHAVIOR_KINDS = (
    CRASH,
    CENSOR_TX,
    INJECT_BOGUS,
    WITHHOLD_BAS,
    SILENT_SECONDARY,
    EQUIVOCATE_BATCH,
    FALSE_COMPLAINT,
)


@dataclass(frozen=True)
class AdversaryBehavior:
    kind: str
    censor_clients: frozenset = field(default_factory=frozenset)
    bogus_fraction: float = 0.5

    def censors(self, tx) -> bool:
        return self.kind == CENSOR_TX and tx.client_id in self.censor_clients
