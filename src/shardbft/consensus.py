"""Per-party consensus node.

Batchers submit attestation shares and complaint votes; a pluggable total
order broadcast delivers them back in rounds that are identical at every
correct node. Round processing is fully deterministic: it extracts keys
that reached the F+1 attestation threshold (keeping the rest pending),
advances per-shard terms on F+1 distinct complaints, prunes orphaned
attestations by reference votes, bounds replay with an epoch window, and
assembles one hash-chained block header per productive round. Nodes sign
the header, swap signature shares, and publish once a quorum accumulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import messages as msg
from .core import (
    BatchAttestationShare,
    BatchKey,
    BlockHeader,
    ComplaintVote,
    ZERO_DIGEST,
    quorum_size,
)
from .crypto import Signature, sign, verify

DROP_BAD_SIGNATURE = "bad_signature"
DROP_STALE_EPOCH = "stale_epoch"
DROP_DUPLICATE = "duplicate"
DROP_STALE_TERM = "stale_term"


@dataclass
class ConsensusState:
    epoch_window: int
    pending: list[BatchAttestationShare] = field(default_factory=list)
    pending_index: set[tuple[int, BatchKey]] = field(default_factory=set)
    # One header ever per ledger slot (shard, seq, primary) while its entry
    # lives; the value remembers the winning digest and the insertion epoch.
    dedup: dict[tuple[int, int, int], tuple[bytes, int]] = field(default_factory=dict)
    complaint_signers: dict[tuple[int, int], set[int]] = field(default_factory=dict)
    terms: dict[int, int] = field(default_factory=dict)
    prev_hash: bytes = ZERO_DIGEST
    next_block_seq: int = 0
    ordered_epoch: int = 0  # watermark: max epoch seen in ordered shares


def verify_event(event, party_keys) -> bool:
    """Whether a share or complaint is signed by its signer; a malformed
    share has no signing payload and never verifies."""
    public = party_keys.get(event.signer)
    if public is None or event.signing_payload is None:
        return False
    return verify(public, event.signing_payload, event.signature)


def filter_event(event, state: ConsensusState, local_epoch: int, party_keys) -> tuple[bool, str | None]:
    """Gate an event before submitting it to the total order broadcast."""
    if not verify_event(event, party_keys):
        return False, DROP_BAD_SIGNATURE
    if isinstance(event, BatchAttestationShare):
        if event.epoch < local_epoch - state.epoch_window:
            return False, DROP_STALE_EPOCH
        if event.key().slot() in state.dedup:
            return False, DROP_DUPLICATE
        if (event.signer, event.key()) in state.pending_index:
            return False, DROP_DUPLICATE
        return True, None
    if event.term < state.terms.get(event.shard, 0):
        return False, DROP_STALE_TERM
    signers = state.complaint_signers.get((event.shard, event.term))
    if signers and event.signer in signers:
        return False, DROP_DUPLICATE
    return True, None


def process_round(
    pending: list[BatchAttestationShare],
    batch: list[BatchAttestationShare],
    f: int,
    excluded_slots=frozenset(),
) -> tuple[list[BatchAttestationShare], list[tuple[BatchKey, tuple[BatchAttestationShare, ...]]]]:
    """Merge this round's ordered shares into the pending list and extract
    every key holding F+1 distinct-signer shares.

    Returns (pending', thresholds) where thresholds is ordered by the key's
    first appearance. Keys whose ledger slot is in ``excluded_slots`` already
    produced a header; their shares stay pending (orphans) until reference
    votes prune them.
    """
    merged: list[BatchAttestationShare] = []
    seen: set[tuple[int, BatchKey]] = set()
    for share in (*pending, *batch):
        ident = (share.signer, share.key())
        if ident in seen:
            continue
        seen.add(ident)
        merged.append(share)
    groups: dict[BatchKey, list[BatchAttestationShare]] = {}
    for share in merged:
        groups.setdefault(share.key(), []).append(share)
    thresholds = []
    extracted: set[BatchKey] = set()
    for key, group in groups.items():
        if len(group) >= f + 1 and key.slot() not in excluded_slots:
            thresholds.append((key, tuple(group)))
            extracted.add(key)
    remaining = [share for share in merged if share.key() not in extracted]
    return remaining, thresholds


class OrphanVotes:
    """Cross-round counting of orphan references, per referenced key.

    A key joins ``ripe`` as its F+1st distinct signer is observed, so no
    round rescans the votes.
    """

    def __init__(self, f: int):
        self.f = f
        self.votes: dict[BatchKey, set[int]] = {}
        self.ripe: set[BatchKey] = set()

    def observe(self, share: BatchAttestationShare) -> None:
        for ref in share.orphan_refs:
            # Only same-shard, strictly backward references count.
            if ref.shard == share.shard and ref.seq < share.seq:
                signers = self.votes.setdefault(ref, set())
                signers.add(share.signer)
                if len(signers) > self.f:
                    self.ripe.add(ref)


def purge_orphans(
    pending: list[BatchAttestationShare],
    round_events,
    f: int,
    votes: OrphanVotes | None = None,
) -> list[BatchAttestationShare]:
    """Drop pending shares referenced by F+1 distinct same-shard signers."""
    votes = votes if votes is not None else OrphanVotes(f)
    for event in round_events:
        if isinstance(event, BatchAttestationShare):
            votes.observe(event)
    ripe = votes.ripe
    if not ripe:
        return pending
    return [share for share in pending if share.key() not in ripe]


def apply_complaints(complaints, state: ConsensusState, f: int) -> list[tuple[int, int]]:
    """Advance terms on F+1 distinct complainers; returns TermChange list."""
    changes = []
    for vote in complaints:
        current = state.terms.get(vote.shard, 0)
        if vote.term < current:
            continue
        signers = state.complaint_signers.setdefault((vote.shard, vote.term), set())
        signers.add(vote.signer)
        if vote.term == current and len(signers) >= f + 1:
            state.terms[vote.shard] = current + 1
            changes.append((vote.shard, current + 1))
            stale = [k for k in state.complaint_signers if k[0] == vote.shard and k[1] <= current]
            for k in stale:
                del state.complaint_signers[k]
    return changes


def make_block_header(state: ConsensusState, keys) -> BlockHeader:
    """Chain a new header over the given keys and advance the chain state."""
    header = BlockHeader(state.next_block_seq, state.prev_hash, tuple(keys))
    state.prev_hash = header.header_hash
    state.next_block_seq += 1
    return header


class ConsensusNode:
    """The consensus node of party ``party`` in the deployment ``d``."""

    def __init__(self, d, party: int):
        self.d = d
        self.party = party
        self.node_id = d.consensus[party]
        self.peers = tuple(c for c in d.consensus if c != self.node_id)
        self.state = ConsensusState(d.protocol.epoch_window)
        self.orphan_votes = OrphanVotes(d.f)
        self.next_round = 1  # the sequencer numbers rounds from 1
        self.early_rounds: dict[int, msg.RoundDelivery] = {}
        self.headers: dict[int, BlockHeader] = {}
        self.collected: dict[int, dict[int, Signature]] = {}
        self.share_buffer: dict[int, list[msg.HeaderShare]] = {}
        self.published: set[int] = set()
        self.evidence: list[tuple] = []
        self.drops: dict[str, int] = {}
        self.term_change_log: list[tuple[int, int, int]] = []  # (time, shard, term)
        self.pending_series: list[tuple[int, int]] = []

    def handle(self, message, ctx) -> None:
        if isinstance(message, msg.ConsensusSubmission):
            self._on_submission(message.event, ctx)
        elif isinstance(message, msg.RoundDelivery):
            # The network may reorder rounds; apply them in round_no order.
            if message.round_no >= self.next_round:
                self.early_rounds[message.round_no] = message
            while self.next_round in self.early_rounds:
                self._on_round(self.early_rounds.pop(self.next_round), ctx)
                self.next_round += 1
        elif isinstance(message, msg.HeaderShare):
            self._on_share(message, ctx)

    # --- intake ------------------------------------------------------------

    def _on_submission(self, event, ctx) -> None:
        local_epoch = ctx.now() // self.d.protocol.epoch_length_us
        ok, reason = filter_event(event, self.state, local_epoch, self.d.party_pubs)
        if ok:
            ctx.send(self.d.sequencer, msg.SequencerSubmit(event))
        else:
            self.drops[reason] = self.drops.get(reason, 0) + 1

    # --- ordered rounds -------------------------------------------------------

    def _on_round(self, m: msg.RoundDelivery, ctx) -> None:
        state = self.state
        shares: list[BatchAttestationShare] = []
        complaints: list[ComplaintVote] = []
        d = self.d
        for event in m.events:
            if not verify_event(event, d.party_pubs):
                continue
            if isinstance(event, BatchAttestationShare):
                shares.append(event)
            elif isinstance(event, ComplaintVote) and event.shard < d.k:
                complaints.append(event)

        if shares:
            state.ordered_epoch = max(state.ordered_epoch, max(s.epoch for s in shares))
        horizon = state.ordered_epoch - state.epoch_window

        term_changes = apply_complaints(complaints, state, d.f)
        for shard, new_term in term_changes:
            self.term_change_log.append((ctx.now(), shard, new_term))

        fresh: list[BatchAttestationShare] = []
        orphans_by_shard: dict[int, list[BatchKey]] = {}
        for share in shares:
            if share.epoch < horizon:
                continue
            if share.key().slot() in state.dedup:
                orphans_by_shard.setdefault(share.shard, []).append(share.key())
            fresh.append(share)

        state.pending, extracted = process_round(
            state.pending, fresh, d.f, excluded_slots=state.dedup.keys()
        )
        # At most one key may win a ledger slot per round; an equivocating
        # proposer can push two same-slot keys past the count threshold in
        # one round, and only the first-appearing one makes the header. The
        # loser's shares return to the pending list as orphans.
        thresholds = []
        claimed: set[tuple[int, int, int]] = set()
        for key, group in extracted:
            slot = key.slot()
            if slot in claimed:
                state.pending.extend(group)
                orphans_by_shard.setdefault(key.shard, []).append(key)
            else:
                claimed.add(slot)
                thresholds.append((key, group))
        for key, _group in thresholds:
            state.dedup[key.slot()] = (key.digest, state.ordered_epoch)

        state.pending = purge_orphans(state.pending, fresh, d.f, self.orphan_votes)
        state.pending_index = {(s.signer, s.key()) for s in state.pending}

        # Slots enter dedup with the non-decreasing ordered_epoch and a live
        # slot is never rewritten, so the dict is in epoch order: expire from
        # the front.
        dedup = state.dedup
        while dedup:
            slot = next(iter(dedup))
            if dedup[slot][1] >= horizon:
                break
            del dedup[slot]

        if thresholds:
            self._emit_header(thresholds, ctx)

        self._notify_batchers(thresholds, orphans_by_shard, term_changes, ctx)
        self.pending_series.append((ctx.now(), len(state.pending)))

    def _emit_header(self, thresholds, ctx) -> None:
        header = make_block_header(self.state, [key for key, _ in thresholds])
        signature = sign(self.d.party_keys[self.party], header.signing_payload)
        seq = header.block_seq
        self.headers[seq] = header
        self.collected.setdefault(seq, {})[self.party] = signature
        share = msg.HeaderShare(seq, header.header_hash, self.party, signature)
        for peer in self.peers:
            ctx.send(peer, share)
        for buffered in self.share_buffer.pop(seq, []):
            self._absorb_share(buffered)
        self._try_publish(seq, ctx)

    def _notify_batchers(self, thresholds, orphans_by_shard, term_changes, ctx) -> None:
        per_shard: dict[int, list[BatchKey]] = {}
        for key, _group in thresholds:
            per_shard.setdefault(key.shard, []).append(key)
        changed = dict(term_changes)
        batchers = self.d.batcher[self.party]
        for shard in set(per_shard) | set(orphans_by_shard) | set(changed):
            if shard >= len(batchers):  # no batcher serves a shard past the last
                continue
            ctx.send(
                batchers[shard],
                msg.OrderedUpdate(
                    shard,
                    tuple(per_shard.get(shard, ())),
                    tuple(orphans_by_shard.get(shard, ())),
                    changed.get(shard),
                ),
            )

    # --- header signature aggregation ------------------------------------------

    def _on_share(self, m: msg.HeaderShare, ctx) -> None:
        if m.block_seq in self.published:
            return
        if m.block_seq not in self.headers:
            self.share_buffer.setdefault(m.block_seq, []).append(m)
            return
        self._absorb_share(m)
        self._try_publish(m.block_seq, ctx)

    def _absorb_share(self, m: msg.HeaderShare) -> None:
        header = self.headers[m.block_seq]
        if m.header_hash != header.header_hash:
            self.evidence.append(("conflicting_header", m.block_seq, m.signer))
            return
        public = self.d.party_pubs.get(m.signer)
        if public is None or not verify(public, header.signing_payload, m.signature):
            self.evidence.append(("bad_share_signature", m.block_seq, m.signer))
            return
        self.collected.setdefault(m.block_seq, {})[m.signer] = m.signature

    def _try_publish(self, seq: int, ctx) -> None:
        if seq in self.published or seq not in self.headers:
            return
        sigs = self.collected.get(seq, {})
        quorum = quorum_size(self.d.n, self.d.f)
        if len(sigs) < quorum:
            return
        self.published.add(seq)
        header = self.headers[seq]
        # Exactly a quorum, lowest signer ids first: every published byte is
        # load-bearing for offline verification.
        ordered = tuple(sorted(sigs.items())[:quorum])
        ctx.send(self.d.assembler[self.party], msg.PublishedHeader(header, ordered))
