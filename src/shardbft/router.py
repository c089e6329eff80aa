"""Stateless transaction validation and deterministic shard mapping.

A router checks that a submission is well formed and signed by a known
client, maps it to a shard by CRC32 of the transaction id, and forwards it
to its own party's batcher for that shard. The acknowledgement sent back to
the client is tied to the batcher confirming the enqueue, so a client
counting acks knows the transaction actually sits in a memory pool.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Mapping

from . import messages as msg
from .core import Transaction
from .crypto import verify
from .pools import INSERT_ACCEPTED, INSERT_DUPLICATE

REASON_MALFORMED = "malformed"
REASON_UNKNOWN_CLIENT = "unknown_client"
REASON_BAD_SIGNATURE = "bad_signature"
REASON_BACKPRESSURE = "backpressure"


@dataclass(frozen=True)
class RouterConfig:
    shard_count: int
    party: int
    client_directory: Mapping[int, bytes]
    max_tx_size: int


def validate_transaction(tx: Transaction, cfg: RouterConfig) -> str | None:
    """None when valid, otherwise the rejection reason."""
    if not tx.payload or len(tx.payload) > cfg.max_tx_size:
        return REASON_MALFORMED
    public = cfg.client_directory.get(tx.client_id)
    if public is None:
        return REASON_UNKNOWN_CLIENT
    if not verify(public, tx.signing_bytes, tx.signature):
        return REASON_BAD_SIGNATURE
    return None


def map_to_shard(tx_id: bytes, shard_count: int) -> int:
    """CRC32 of the transaction id mod the shard count."""
    if shard_count < 1:
        raise ValueError("shard count must be >= 1")
    return zlib.crc32(tx_id) % shard_count


@dataclass
class RouterNode:
    """Event-driven router for one party.

    Decisions are a pure function of (tx, config); the only mutable state is
    transport bookkeeping for pending enqueue confirmations.
    """

    cfg: RouterConfig
    node_id: int
    batcher_ids: Mapping[int, int]  # shard -> node id of this party's batcher
    _pending: dict[int, int] = field(default_factory=dict)  # submission -> client node

    def start(self, ctx) -> None:
        pass

    def handle(self, message, ctx) -> None:
        if isinstance(message, msg.SubmitTx):
            self._on_submit(message, ctx)
        elif isinstance(message, msg.EnqueueResult):
            self._on_enqueue_result(message, ctx)

    def _on_submit(self, m: msg.SubmitTx, ctx) -> None:
        reason = validate_transaction(m.tx, self.cfg)
        if reason is not None:
            if m.reply_to is not None:
                ctx.send(m.reply_to, msg.SubmissionReply(m.submission_id, False, reason))
            return
        batcher = self.batcher_ids[map_to_shard(m.tx.tx_id, self.cfg.shard_count)]
        if m.reply_to is not None:
            self._pending[m.submission_id] = m.reply_to
        ctx.send(batcher, msg.ForwardTx(m.tx, m.submission_id if m.reply_to is not None else None, self.node_id))

    def _on_enqueue_result(self, m: msg.EnqueueResult, ctx) -> None:
        reply_to = self._pending.pop(m.submission_id, None)
        if reply_to is None:
            return
        if m.status in (INSERT_ACCEPTED, INSERT_DUPLICATE):
            # A duplicate is already in the pool or the ledger: the submission
            # goal is met, so it still acknowledges.
            ctx.send(reply_to, msg.SubmissionReply(m.submission_id, True, m.status))
        else:
            ctx.send(reply_to, msg.SubmissionReply(m.submission_id, False, REASON_BACKPRESSURE))
