"""Per-(party, shard) batching node.

A batcher is the primary for a term when the round-robin assignment lands on
its party, otherwise it is a secondary. Primaries bundle pooled transactions
into batches, persist them, attest them, and serve them to pullers.
Secondaries pull batches in ledger order, spot-check a random sample of the
transactions inside, persist and attest the good ones, and raise complaint
votes when the primary misbehaves or starves their pooled transactions.
"""

from __future__ import annotations

import math
import random

from . import messages as msg
from .behaviors import (
    EQUIVOCATE_BATCH,
    FALSE_COMPLAINT,
    INJECT_BOGUS,
    SILENT_SECONDARY,
    WITHHOLD_BAS,
)
from .core import (
    Batch,
    BatchAttestationShare,
    BatchKey,
    ComplaintVote,
    Transaction,
    encode_bas_payload,
    encode_complaint_payload,
    primary_for_term,
    sha256,
    u64,
)
from .crypto import Signature, sign
from .pools import INSERT_ACCEPTED, INSERT_DUPLICATE, RequestPool
from .router import validate_transaction

_LONG_AGO, _NEVER = -(10**18), 10**18


def required_sample_size(alpha: float, p_fail: float) -> int:
    """Samples per batch so that a batch with valid fraction <= alpha slips
    through with probability at most p_fail: ceil(ln(p_fail) / ln(alpha))."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be strictly between 0 and 1")
    if not 0.0 < p_fail < 1.0:
        raise ValueError("p_fail must be strictly between 0 and 1")
    raw = math.log(p_fail) / math.log(alpha)
    nearest = round(raw)
    # Guard against float noise on exact integer ratios (e.g. alpha=0.5, p=2^-30).
    k = nearest if abs(raw - nearest) < 1e-9 else math.ceil(raw)
    return max(1, k)


def sample_verify(batch: Batch, sample_count: int, rng: random.Random, is_valid) -> int | None:
    """Draw indices uniformly with replacement and verify the hit transactions.

    Returns the index of the first invalid transaction found, or None when
    every sampled transaction checks out. Sampling with replacement matches
    the miss-probability model alpha^K; without replacement would only do
    better.
    """
    n = len(batch.txs)
    for _ in range(min(sample_count, n)):
        idx = rng.randrange(n)
        if not is_valid(batch.txs[idx]):
            return idx
    return None


def verification_rng(sim_seed: int, party: int, shard: int, seq: int) -> random.Random:
    material = sha256(u64(sim_seed) + u64(party) + u64(shard) + u64(seq))
    return random.Random(int.from_bytes(material, "big"))


def all_txs_valid(batch: Batch, d) -> bool:
    """Whether every tx of ``batch`` passes the router's checks in ``d``, so no
    sample of it can fail; kept on the batch with the deployment it is for."""
    cached = batch.__dict__.get("_all_txs_valid")
    if cached is None or cached[0] is not d:
        directory, max_tx_size = d.client_directory, d.protocol.max_tx_size
        cached = (d, all(validate_transaction(tx, directory, max_tx_size) is None for tx in batch.txs))
        batch.__dict__["_all_txs_valid"] = cached
    return cached[1]


class BatcherNode:
    """The batcher of party ``party`` for shard ``shard`` in the deployment ``d``."""

    def __init__(self, d, party: int, shard: int):
        self.d = d
        self.party = party
        self.shard = shard
        self.node_id = d.batcher[party][shard]
        self.keypair = d.party_keys[party]
        self.adversary = d.adversaries.get(party)  # this party's scenario entry, if any
        self.kind = None if self.adversary is None else self.adversary.kind
        self._set_term(0)
        self.ledger: list[Batch] = []
        self.persisted_ids: set[bytes] = set()
        self.thresholded: set[BatchKey] = set()
        self.complained_term = -1
        self.halted = False
        self.pending_pulls: dict[int, list[int]] = {}  # seq -> requesting parties
        self.equiv_variants: dict[int, dict[int, Batch]] = {}
        self.batch_opened_at: int | None = None
        self.last_propose_at = _LONG_AGO
        self.propose_at = _NEVER  # the time of the one live ProposeKick
        self.reproposed_tx_ids: list[bytes] = []
        self._adv_rng = random.Random(
            int.from_bytes(sha256(b"adv" + u64(d.seed) + u64(party) + u64(shard)), "big")
        )
        self.pool = RequestPool(d.protocol.max_batch_size, d.protocol.pool_capacity)

    # --- role -----------------------------------------------------------

    def _set_term(self, term: int) -> None:
        self.term = term
        self.primary = primary_for_term(term, self.d.n)  # the term's primary party
        self.is_primary = self.primary == self.party

    @property
    def height(self) -> int:
        return len(self.ledger)

    # --- lifecycle --------------------------------------------------------

    def start(self, ctx) -> None:
        ctx.schedule(self.d.protocol.bucket_period_us, msg.BucketTick())
        self._change_term(0, ctx)

    def handle(self, message, ctx) -> None:
        if isinstance(message, msg.SubmitTx):
            self._on_submit(message, ctx)
        elif isinstance(message, msg.PullRequest):
            self._on_pull_request(message, ctx)
        elif isinstance(message, msg.PullResponse):
            self._on_pull_response(message, ctx)
        elif isinstance(message, msg.OrderedUpdate):
            self._on_ordered_update(message, ctx)
        elif isinstance(message, msg.ProposeKick):
            if message.at == self.propose_at:  # any other kick was superseded
                self.propose_at = _NEVER
                if self.is_primary:
                    self._on_kick(ctx)
        elif isinstance(message, msg.BucketTick):
            self._on_bucket_tick(ctx)
        elif isinstance(message, msg.AssemblerPull):
            seq = message.seq
            batch = self.ledger[seq] if seq < self.height else None
            reply = msg.AssemblerPullResponse(self.shard, seq, batch)
            ctx.send(self.d.assembler[message.requester_party], reply)

    # --- pool intake ------------------------------------------------------

    def _on_submit(self, m: msg.SubmitTx, ctx) -> None:
        tx = m.tx
        if self.adversary is not None and self.adversary.censors(tx):
            # A censoring party drops the transaction but acknowledges it, so
            # the client cannot tell this party apart from an honest one.
            status = INSERT_ACCEPTED
        elif tx.tx_id in self.persisted_ids:
            status = INSERT_DUPLICATE
        else:
            status = self.pool.insert(tx)
            if status == INSERT_ACCEPTED and self.is_primary:
                self._arm_proposal(ctx)
        if m.submission_id is not None:
            # A duplicate is already in the pool or the ledger: the
            # submission goal is met, so it still acknowledges.
            ok = status in (INSERT_ACCEPTED, INSERT_DUPLICATE)
            ctx.send(self.d.hub, msg.SubmissionReply(m.submission_id, self.party, ok, status))

    # --- primary: proposing ----------------------------------------------

    def _due_at(self, now: int) -> int:
        """The batching rule, the earliest time this primary may propose: at once
        for a sealed batch, ``max_batch_latency`` after a partial one opened, and
        never within ``min_propose_interval`` of the last proposal."""
        proto = self.d.protocol
        if self.pool.has_sealed():
            at = now
        elif self.pool.has_partial():
            at = self.batch_opened_at + proto.max_batch_latency_us
        else:
            return _NEVER
        return max(at, self.last_propose_at + proto.min_propose_interval_us)

    def _arm_proposal(self, ctx) -> None:
        """Keep one live ``ProposeKick``, at the earliest time the rule allows."""
        now = ctx.now()
        if not self.pool.has_partial():
            self.batch_opened_at = None
        elif self.batch_opened_at is None:
            self.batch_opened_at = now
        at = self._due_at(now)
        if at < self.propose_at:
            self.propose_at = at
            ctx.schedule(at - now, msg.ProposeKick(at))

    def _on_kick(self, ctx) -> None:
        now = ctx.now()
        if self._due_at(now) <= now:
            self.last_propose_at = now
            self._persist(self._build_batch(tuple(self.pool.next_batch())), ctx)
        self._arm_proposal(ctx)

    def _build_batch(self, txs: tuple[Transaction, ...]) -> Batch:
        seq = self.height
        if self.kind == INJECT_BOGUS and txs:
            txs = self._inject_bogus(txs)
        batch = Batch(self.shard, seq, self.term, self.party, txs)
        if self.kind == EQUIVOCATE_BATCH and len(txs) > 1:
            variant = Batch(self.shard, seq, self.term, self.party, tuple(reversed(txs)))
            others = [p for p in range(self.d.n) if p != self.party]
            split = {p: (batch if i < len(others) // 2 else variant) for i, p in enumerate(others)}
            self.equiv_variants[seq] = split
        return batch

    def _inject_bogus(self, txs: tuple[Transaction, ...]) -> tuple[Transaction, ...]:
        out = list(txs)
        count = max(1, int(len(out) * self.adversary.bogus_fraction))
        slots = self._adv_rng.sample(range(len(out)), min(count, len(out)))
        for i in slots:
            fake_client = (1 << 40) + self._adv_rng.randrange(1 << 20)
            payload = self._adv_rng.randbytes(max(1, len(out[i].payload)))
            out[i] = Transaction(fake_client, payload, Signature(self.d.scheme, b"\x00" * 32))
        return tuple(out)

    # --- persistence + attestation ------------------------------------------

    def _persist(self, batch: Batch, ctx) -> None:
        self.ledger.append(batch)
        ids = [tx.tx_id for tx in batch.txs]
        self.persisted_ids.update(ids)
        self.pool.remove(ids)
        ctx.send(self.d.assembler[self.party], batch)
        if self.kind not in (WITHHOLD_BAS, SILENT_SECONDARY):
            self._send_attestation(batch, ctx)
        for party in self.pending_pulls.pop(batch.seq, ()):
            self._serve(batch.seq, party, ctx)

    def _send_attestation(self, batch: Batch, ctx) -> None:
        key, epoch = batch.key(), ctx.now() // self.d.protocol.epoch_length_us
        signature = sign(self.keypair, encode_bas_payload(key, epoch))
        ctx.send(self.d.sequencer, BatchAttestationShare(self.party, key, epoch, signature))

    # --- serving pulls ----------------------------------------------------------

    def _on_pull_request(self, m: msg.PullRequest, ctx) -> None:
        if m.seq < self.height:
            self._serve(m.seq, m.requester_party, ctx)
        else:
            # Queue even while secondary: a request can race our own term
            # change. The requester ignores answers from non-primaries.
            waiters = self.pending_pulls.setdefault(m.seq, [])
            if m.requester_party not in waiters:
                waiters.append(m.requester_party)

    def _serve(self, seq: int, party: int, ctx) -> None:
        """Answer ``party``'s batcher for this shard with the batch at ``seq``."""
        batch = self.equiv_variants.get(seq, {}).get(party, self.ledger[seq])
        ctx.send(self.d.batcher[party][self.shard], msg.PullResponse(batch, self.party))

    # --- secondary: pulling, verifying, persisting --------------------------------

    def _issue_pull(self, ctx) -> None:
        if self.is_primary or self.halted or self.kind == SILENT_SECONDARY:
            return
        ctx.send(self.d.batcher[self.primary][self.shard], msg.PullRequest(self.height, self.party))

    def _on_pull_response(self, m: msg.PullResponse, ctx) -> None:
        if self.is_primary or self.halted:
            return
        if m.responder_party != self.primary or m.batch is None:
            return
        batch = m.batch
        if batch.seq != self.height:
            return
        current = batch.term == self.term and batch.primary == self.primary
        historical = batch.term < self.term
        if not (current or historical):
            # Mislabelled batch served by the live primary: misbehavior.
            self._send_complaint(ctx)
            self.halted = True
            return
        d = self.d
        # Only a batch holding an invalid tx can fail; the RNG feeds nothing else.
        if not all_txs_valid(batch, d):
            rng = verification_rng(d.seed, self.party, self.shard, batch.seq)
            bad = sample_verify(
                batch,
                d.sample_count,
                rng,
                lambda tx: validate_transaction(tx, d.client_directory, d.protocol.max_tx_size) is None,
            )
            if bad is not None:
                self._send_complaint(ctx)
                self.halted = True
                return
        self._persist(batch, ctx)
        self._issue_pull(ctx)

    # --- complaints and censorship --------------------------------------------------

    def _send_complaint(self, ctx) -> None:
        if self.complained_term >= self.term:
            return
        self.complained_term = self.term
        payload = encode_complaint_payload(self.term, self.shard)
        ctx.send(self.d.sequencer, ComplaintVote(self.party, self.term, self.shard, sign(self.keypair, payload)))

    def _on_bucket_tick(self, ctx) -> None:
        proto = self.d.protocol
        ctx.schedule(proto.bucket_period_us, msg.BucketTick())
        if self.kind == FALSE_COMPLAINT and not self.is_primary:
            self._send_complaint(ctx)
        if self.is_primary or self.halted or self.kind == SILENT_SECONDARY:
            return
        to_forward, complain = self.pool.scan(ctx.now(), proto.t_forward_us, proto.t_complain_us)
        for tx in to_forward:
            ctx.send(self.d.router[self.primary], msg.SubmitTx(tx, None))
        if complain:
            self._send_complaint(ctx)

    # --- ordered view ---------------------------------------------------------------

    def _on_ordered_update(self, m: msg.OrderedUpdate, ctx) -> None:
        self.thresholded.update(m.thresholded)
        if m.new_term is not None and m.new_term > self.term:
            self._change_term(m.new_term, ctx)

    def _change_term(self, new_term: int, ctx) -> None:
        self._set_term(new_term)
        self.halted = False
        self.pool.new_term(ctx.now())
        if self.is_primary:
            redo: list[Transaction] = []
            for batch in self.ledger:
                if batch.key() not in self.thresholded:
                    redo.extend(batch.txs)
            # No persisted tx is pooled, so every one of them is queued, once.
            self.pool.push_front(redo)
            self.reproposed_tx_ids.extend(tx.tx_id for tx in redo)
            self.batch_opened_at = None
            self._arm_proposal(ctx)
        else:
            self._issue_pull(ctx)
            if self.kind == FALSE_COMPLAINT:
                self._send_complaint(ctx)
