"""The kinds of injectable fault behavior for adversary parties.

A scenario's adversary entry (``sim.scenario.AdversarySpec``) names one
kind; every batcher of that party carries the entry, correct parties carry
none. Behaviors are deliberately simple and deterministic so runs replay
exactly.
"""

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
