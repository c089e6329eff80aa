"""Verdicts over executed runs, computed only from recorded artifacts.

Each check returns a dict {"pass": bool, ...detail} so it can be embedded
in the report and re-derived offline from the same artifacts.
"""

from __future__ import annotations

from ..core import header_digest

TICK_US = 1  # virtual time moves in whole microseconds: the bound's tolerance


def check_agreement(ledgers: dict[int, list]) -> dict:
    """All correct assemblers hold pairwise-identical ledgers.

    Common prefixes must match block by block and final lengths must agree
    at quiescence (a strict prefix is a completeness breach).
    """
    if len(ledgers) < 2:
        return {"pass": False, "reason": "need at least two correct ledgers"}
    parties = sorted(ledgers)
    ref_party = parties[0]
    ref = ledgers[ref_party]
    for party in parties[1:]:
        other = ledgers[party]
        for i in range(min(len(ref), len(other))):
            if header_digest(ref[i].header) != header_digest(other[i].header):
                return {
                    "pass": False,
                    "reason": "divergence",
                    "block_seq": i,
                    "parties": [ref_party, party],
                }
        if len(ref) != len(other):
            return {
                "pass": False,
                "reason": "length_mismatch",
                "parties": [ref_party, party],
                "lengths": [len(ref), len(other)],
            }
    return {"pass": True, "blocks": len(ref)}


def _occurrences(ledger) -> dict[bytes, list[tuple[int, int]]]:
    """tx_id -> [(shard, term) of each containing batch, in commit order]."""
    out: dict[bytes, list[tuple[int, int]]] = {}
    for block in ledger:
        for batch in block.batches:
            for tx in batch.txs:
                out.setdefault(tx.tx_id, []).append((batch.shard, batch.term))
    return out


def check_no_loss_no_unbounded_dup(report) -> dict:
    """Every quorum-acked tx is committed everywhere; duplicates only span
    a term change of the tx's shard, at most one extra copy per change."""
    correct = sorted(report.ledgers)
    if not correct:
        return {"pass": False, "reason": "no correct ledgers"}
    occurrences = _occurrences(report.ledgers[correct[0]])
    changes_by_shard: dict[int, int] = {}
    for _t, shard, _term in report.term_changes:
        changes_by_shard[shard] = changes_by_shard.get(shard, 0) + 1
    # A record's last commit is set once every correct party holds the tx.
    lost = [r.tx_id.hex() for r in report.tx_records if r.ack_quorum_us is not None and r.last_commit_us is None]
    bad_dups = []
    for tx_id, occ in occurrences.items():
        if len(occ) <= 1:
            continue
        shard = occ[0][0]
        terms = {term for _s, term in occ}
        changes = changes_by_shard.get(shard, 0)
        if len(terms) < 2 or changes == 0 or len(occ) > 1 + changes:
            bad_dups.append(tx_id.hex())
    ok = not lost and not bad_dups
    detail: dict = {"pass": ok, "lost": len(lost), "bad_duplicates": len(bad_dups)}
    if lost:
        detail["first_lost"] = lost[0]
    if bad_dups:
        detail["first_bad_duplicate"] = bad_dups[0]
    return detail


def check_censorship_bound(report, bound_us: int) -> dict:
    """Every quorum-acked tx commits everywhere within the configured
    F*T_censor + tob_delay_bound + 2*Delta of its submission."""
    worst = 0
    worst_tx = None
    for record in report.tx_records:
        if record.ack_quorum_us is None:
            continue
        if record.last_commit_us is None:
            return {"pass": False, "reason": "uncommitted", "tx": record.tx_id.hex()}
        elapsed = record.last_commit_us - record.submit_us
        if elapsed > worst:
            worst = elapsed
            worst_tx = record.tx_id.hex()
    ok = worst <= bound_us + TICK_US
    return {
        "pass": ok,
        "bound_us": bound_us,
        "worst_us": worst,
        "worst_tx": worst_tx,
    }


def check_validity(report) -> dict:
    """No committed batch is dominated by transactions that fail validation
    (fraction of invalid txs above 1 - alpha)."""
    ok = report.bogus_batch_commits == 0
    return {"pass": ok, "bogus_batch_commits": report.bogus_batch_commits}
