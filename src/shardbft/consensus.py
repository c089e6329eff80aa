"""Per-party consensus node.

Batchers submit each attestation share and complaint vote once, straight to
a pluggable total order broadcast, which delivers rounds that are identical
at every correct node; an event submitted again is ordered again. One
admission rule, ``filter_event``, gates each ordered event against the
ordered epoch. A round is one deterministic pass: it admits its events
against its start state, raises the ordered epoch, counts the distinct
signers of each pending batch key, gives each ledger slot the first key to
reach F+1 signers and refuses every other share of a slot with a header
(``headed``), advances terms on F+1 complaints, bounds replay with an epoch
window, and chains one block header per productive round, which nodes sign,
swap, publish and drop. No state keeps a share once it is counted.
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
    attestation_threshold,
    quorum_size,
)
from .crypto import Signature, sign, verify

DROP_BAD_SIGNATURE = "bad_signature"
DROP_STALE_EPOCH = "stale_epoch"
DROP_DUPLICATE = "duplicate"
DROP_STALE_TERM = "stale_term"
DROP_UNKNOWN_SHARD = "unknown_shard"


@dataclass
class ConsensusState:
    epoch_window: int
    shard_count: int
    # key -> the signers of its admitted shares, keys in first-appearance order.
    pending: dict[BatchKey, set[int]] = field(default_factory=dict)
    # One header ever per ledger slot (shard, seq, primary) while its entry
    # lives; the value is the ordered epoch the slot was won in.
    dedup: dict[tuple[int, int, int], int] = field(default_factory=dict)
    complaint_signers: dict[tuple[int, int], set[int]] = field(default_factory=dict)
    terms: dict[int, int] = field(default_factory=dict)
    prev_hash: bytes = ZERO_DIGEST
    next_block_seq: int = 0
    ordered_epoch: int = 0  # the max epoch of admitted ordered shares


def verify_event(event, party_keys) -> bool:
    """Whether a share or complaint is signed by its signer; a malformed
    share has no signing payload and never verifies."""
    public = party_keys.get(event.signer)
    if public is None or event.signing_payload is None:
        return False
    return verify(public, event.signing_payload, event.signature)


def headed(state: ConsensusState, share: BatchAttestationShare) -> bool:
    """Whether the share's ledger slot already has a header. Every correct
    node applies the same rounds, so all learn this in the same round."""
    return share.key.slot() in state.dedup


def filter_event(event, state: ConsensusState, party_keys) -> tuple[bool, str | None]:
    """Admit a share or complaint, or give the reason to refuse it; a share
    is stale against the ordered epoch."""
    if not verify_event(event, party_keys):
        return False, DROP_BAD_SIGNATURE
    if isinstance(event, BatchAttestationShare):
        if event.key.shard >= state.shard_count:
            return False, DROP_UNKNOWN_SHARD
        if event.epoch < state.ordered_epoch - state.epoch_window:
            return False, DROP_STALE_EPOCH
        if headed(state, event) or event.signer in state.pending.get(event.key, ()):
            return False, DROP_DUPLICATE
        return True, None
    if event.shard >= state.shard_count:
        return False, DROP_UNKNOWN_SHARD
    if event.term < state.terms.get(event.shard, 0):
        return False, DROP_STALE_TERM
    if event.signer in state.complaint_signers.get((event.shard, event.term), ()):
        return False, DROP_DUPLICATE
    return True, None


def process_round(
    pending: dict[BatchKey, set[int]],
    batch: list[BatchAttestationShare],
    f: int,
) -> list[BatchKey]:
    """Add this round's ordered shares to ``pending`` and apply the round
    rule: a key with F+1 distinct signers wins its ledger slot, at most one
    key per slot and the first to appear first. Every pending key of an
    awarded slot leaves ``pending``: the winner, a same-slot key that also
    reached F+1, and any key short of it. Returns the winners, in order.
    """
    for share in batch:
        pending.setdefault(share.key, set()).add(share.signer)
    threshold = attestation_threshold(f)
    awarded: dict[tuple[int, int, int], BatchKey] = {}
    for key, signers in pending.items():
        if len(signers) >= threshold:
            awarded.setdefault(key.slot(), key)
    if awarded:
        for key in [key for key in pending if key.slot() in awarded]:
            del pending[key]
    return list(awarded.values())


def apply_complaints(complaints, state: ConsensusState, f: int) -> list[tuple[int, int]]:
    """Advance terms on F+1 distinct complainers; returns TermChange list."""
    changes = []
    for vote in complaints:
        current = state.terms.get(vote.shard, 0)
        if vote.term < current:
            continue
        signers = state.complaint_signers.setdefault((vote.shard, vote.term), set())
        if vote.signer in signers:  # a repeat within the round
            continue
        signers.add(vote.signer)
        if vote.term == current and len(signers) >= attestation_threshold(f):
            state.terms[vote.shard] = current + 1
            changes.append((vote.shard, current + 1))
            stale = [k for k in state.complaint_signers if k[0] == vote.shard and k[1] <= current]
            for k in stale:
                del state.complaint_signers[k]
    return changes


class ConsensusNode:
    """The consensus node of party ``party`` in the deployment ``d``."""

    def __init__(self, d, party: int):
        self.d = d
        self.party = party
        self.node_id = d.consensus[party]
        self.peers = tuple(c for c in d.consensus if c != self.node_id)
        self.quorum = quorum_size(d.n, d.f)  # header signatures that publish a block
        self.state = ConsensusState(d.protocol.epoch_window, d.k)
        self.next_round = 1  # the sequencer numbers rounds from 1
        self.early_rounds: dict[int, msg.RoundDelivery] = {}
        # Block seq -> its header and the signatures so far, until it publishes.
        self.headers: dict[int, tuple[BlockHeader, dict[int, Signature]]] = {}
        self.share_buffer: dict[int, list[msg.HeaderShare]] = {}
        self.evidence: list[tuple] = []
        self.drops: dict[str, int] = {}
        self.term_change_log: list[tuple[int, int, int]] = []  # (time, shard, term)
        self.pending_series: list[tuple[int, int]] = []

    def handle(self, message, ctx) -> None:
        if isinstance(message, msg.RoundDelivery):
            # The network may reorder rounds; apply them in round_no order.
            if message.round_no >= self.next_round:
                self.early_rounds[message.round_no] = message
            while self.next_round in self.early_rounds:
                self._on_round(self.early_rounds.pop(self.next_round), ctx)
                self.next_round += 1
        elif isinstance(message, msg.HeaderShare):
            self._on_share(message, ctx)

    # --- ordered rounds -------------------------------------------------------

    def _on_round(self, m: msg.RoundDelivery, ctx) -> None:
        state = self.state
        d = self.d
        # Every ordered event passes the admission rule against the state at
        # the start of the round: a replay or a share of a headed slot is
        # refused here whatever the total order delivers.
        shares: list[BatchAttestationShare] = []
        complaints: list[ComplaintVote] = []
        for event in m.events:
            ok, reason = filter_event(event, state, d.party_pubs)
            if ok:
                (shares if isinstance(event, BatchAttestationShare) else complaints).append(event)
            else:
                self.drops[reason] = self.drops.get(reason, 0) + 1
        state.ordered_epoch = max([state.ordered_epoch, *(share.epoch for share in shares)])

        term_changes = apply_complaints(complaints, state, d.f)
        for shard, new_term in term_changes:
            self.term_change_log.append((ctx.now(), shard, new_term))

        # Only the first same-slot key past F+1 makes the header; the rest
        # of that slot's shares leave with it.
        winners = process_round(state.pending, shares, d.f)
        for key in winners:
            state.dedup[key.slot()] = state.ordered_epoch

        # Slots enter dedup with the non-decreasing ordered_epoch and a live
        # slot is never rewritten, so the dict is in epoch order: expire from
        # the front. No pending key belongs to a headed slot.
        dedup, horizon = state.dedup, state.ordered_epoch - state.epoch_window
        while dedup:
            slot = next(iter(dedup))
            if dedup[slot] >= horizon:
                break
            del dedup[slot]

        if winners:
            self._emit_header(winners, ctx)

        self._notify_batchers(winners, term_changes, ctx)
        self.pending_series.append((ctx.now(), sum(map(len, state.pending.values()))))

    def _emit_header(self, winners, ctx) -> None:
        state, seq = self.state, self.state.next_block_seq
        header = BlockHeader(seq, state.prev_hash, tuple(winners))
        state.prev_hash, state.next_block_seq = header.header_hash, seq + 1
        signature = sign(self.d.party_keys[self.party], header.signing_payload)
        self.headers[seq] = (header, {self.party: signature})
        share = msg.HeaderShare(seq, header.header_hash, self.party, signature)
        for peer in self.peers:
            ctx.send(peer, share)
        for buffered in self.share_buffer.pop(seq, []):
            self._absorb_share(buffered)
        self._try_publish(seq, ctx)

    def _notify_batchers(self, winners, term_changes, ctx) -> None:
        per_shard: dict[int, list[BatchKey]] = {}
        for key in winners:
            per_shard.setdefault(key.shard, []).append(key)
        changed = dict(term_changes)
        batchers = self.d.batcher[self.party]
        for shard in set(per_shard) | set(changed):
            ctx.send(batchers[shard], msg.OrderedUpdate(tuple(per_shard.get(shard, ())), changed.get(shard)))

    # --- header signature aggregation ------------------------------------------

    def _on_share(self, m: msg.HeaderShare, ctx) -> None:
        if m.block_seq >= self.state.next_block_seq:  # its round is still to come
            self.share_buffer.setdefault(m.block_seq, []).append(m)
            return
        if m.block_seq not in self.headers:  # already published
            return
        self._absorb_share(m)
        self._try_publish(m.block_seq, ctx)

    def _absorb_share(self, m: msg.HeaderShare) -> None:
        header, sigs = self.headers[m.block_seq]
        if m.header_hash != header.header_hash:
            self.evidence.append(("conflicting_header", m.block_seq, m.signer))
            return
        public = self.d.party_pubs.get(m.signer)
        if public is None or not verify(public, header.signing_payload, m.signature):
            self.evidence.append(("bad_share_signature", m.block_seq, m.signer))
            return
        sigs[m.signer] = m.signature

    def _try_publish(self, seq: int, ctx) -> None:
        header, sigs = self.headers[seq]
        quorum = self.quorum
        if len(sigs) < quorum:
            return
        del self.headers[seq]
        # Exactly a quorum, lowest signer ids first: every published byte is
        # load-bearing for offline verification.
        ordered = tuple(sorted(sigs.items())[:quorum])
        ctx.send(self.d.assembler[self.party], msg.PublishedHeader(header, ordered))
