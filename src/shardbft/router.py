"""Stateless transaction validation and deterministic shard mapping.

A router checks that a submission is well formed and signed by a known
client, maps it to a shard by CRC32 of the transaction id, and forwards it
to its own party's batcher for that shard. The acknowledgement is the
batcher's own ``SubmissionReply`` to the deployment's hub, sent once it has
enqueued the transaction, so a client counting acks knows the transaction
actually sits in a memory pool.

The router keeps no state and builds nothing for a valid submission: it
forwards the ``SubmitTx`` it received. It builds a reply only to reject an
invalid submission. A submission without an id (a secondary batcher's
forward to the primary) gets no reply.
"""

from __future__ import annotations

import zlib
from typing import Mapping

from . import messages as msg
from .core import Transaction
from .crypto import verify

REASON_MALFORMED = "malformed"
REASON_UNKNOWN_CLIENT = "unknown_client"
REASON_BAD_SIGNATURE = "bad_signature"


def validate_transaction(
    tx: Transaction, client_directory: Mapping[int, bytes], max_tx_size: int
) -> str | None:
    """None when valid, otherwise the rejection reason."""
    if not tx.payload or len(tx.payload) > max_tx_size:
        return REASON_MALFORMED
    public = client_directory.get(tx.client_id)
    if public is None:
        return REASON_UNKNOWN_CLIENT
    if not verify(public, tx.signing_bytes, tx.signature):
        return REASON_BAD_SIGNATURE
    return None


def map_to_shard(tx_id: bytes, shard_count: int) -> int:
    """CRC32 of the transaction id mod the shard count."""
    return zlib.crc32(tx_id) % shard_count


class RouterNode:
    """Event-driven router for party ``party`` of the deployment ``d``.

    Every decision is a pure function of (message, deployment).
    """

    def __init__(self, d, party: int):
        self.d = d
        self.party = party
        self.node_id = d.router[party]
        self.batchers = d.batcher[party]  # shard -> this party's batcher
        self.directory, self.max_tx_size, self.k = d.client_directory, d.protocol.max_tx_size, d.k

    def handle(self, m: msg.SubmitTx, ctx) -> None:
        reason = validate_transaction(m.tx, self.directory, self.max_tx_size)
        if reason is None:
            ctx.send(self.batchers[map_to_shard(m.tx.tx_id, self.k)], m)
        elif m.submission_id is not None:
            ctx.send(self.d.hub, msg.SubmissionReply(m.submission_id, self.party, False, reason))
