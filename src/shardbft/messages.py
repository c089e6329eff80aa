"""Typed messages exchanged between nodes, and the node runtime interface.

Every node is a single-threaded state machine with a ``handle(message, ctx)``
entry point. The context is provided by the host (the simulator, or a unit
test stub) and is the only way a node interacts with the world.

Messages are mutable slotted records (``record.Record``), each with a
straight-line ``__init__``: a frozen record stores each field through
``object.__setattr__``, which roughly triples the cost of building one, and
a run builds about one per event. No node assigns to a message once it is
sent (``tests/test_regression.py`` checks every message of a run).

A message names parties and carries protocol content, never a node id: the
receiver looks up where to answer in its ``Deployment``. So one client
submission object can go to every router, and a router keeps no state.

A class here exists only when it carries something no protocol object
does. An attestation share, a complaint vote and a persisted batch travel
as the ``core`` objects themselves: a batcher submits the share or
complaint it built straight to the sequencer. A router forwards the
``SubmitTx`` it received.
"""

from __future__ import annotations

from typing import Protocol

from .core import Batch, BatchKey, BlockHeader, Transaction
from .crypto import Signature
from .record import Record


class NodeContext(Protocol):
    def now(self) -> int:
        """Current virtual time in microseconds."""

    def send(self, dest: int, message) -> None:
        """Deliver a message to another node, subject to the network model."""

    def schedule(self, delay_us: int, message) -> None:
        """Deliver a message back to the calling node after a delay."""


# --- client <-> router <-> batcher -----------------------------------------


class SubmitTx(Record):
    __slots__ = _fields = ("tx", "submission_id")

    def __init__(self, tx: Transaction, submission_id: int | None):
        self.tx = tx
        self.submission_id = submission_id  # the client's tx index; None for a secondary's forward


class SubmissionReply(Record):
    __slots__ = _fields = ("submission_id", "party", "ok", "reason")

    def __init__(self, submission_id: int, party: int, ok: bool, reason: str):
        self.submission_id = submission_id
        self.party = party  # the answering party, whose batcher enqueued (or router rejected) the tx
        self.ok = ok
        self.reason = reason  # a pools.INSERT_* status, or the router's rejection reason


# --- batch dissemination -----------------------------------------------------


class PullRequest(Record):
    __slots__ = _fields = ("seq", "requester_party")

    def __init__(self, seq: int, requester_party: int):
        self.seq = seq
        self.requester_party = requester_party


class PullResponse(Record):
    __slots__ = _fields = ("batch", "responder_party")

    def __init__(self, batch: Batch, responder_party: int):
        self.batch = batch
        self.responder_party = responder_party


# --- consensus ----------------------------------------------------------------


class RoundDelivery(Record):
    __slots__ = _fields = ("round_no", "events")

    def __init__(self, round_no: int, events: tuple):
        self.round_no = round_no
        self.events = events


class HeaderShare(Record):
    __slots__ = _fields = ("block_seq", "header_hash", "signer", "signature")

    def __init__(self, block_seq: int, header_hash: bytes, signer: int, signature: Signature):
        self.block_seq = block_seq
        self.header_hash = header_hash
        self.signer = signer
        self.signature = signature


class PublishedHeader(Record):
    __slots__ = _fields = ("header", "quorum_sigs")

    def __init__(self, header: BlockHeader, quorum_sigs: tuple[tuple[int, Signature], ...]):
        self.header = header
        self.quorum_sigs = quorum_sigs


class OrderedUpdate(Record):
    """What one ordered round decided for a shard, consensus -> own batcher:
    the shard's keys that won their slots, and its new term if it changed.
    A round that decided neither for a shard sends that shard nothing."""

    __slots__ = _fields = ("thresholded", "new_term")

    def __init__(self, thresholded: tuple[BatchKey, ...], new_term: int | None):
        self.thresholded = thresholded
        self.new_term = new_term


# --- assembler ------------------------------------------------------------------


class AssemblerPull(Record):
    __slots__ = _fields = ("seq", "requester_party")

    def __init__(self, seq: int, requester_party: int):
        self.seq = seq
        self.requester_party = requester_party


class AssemblerPullResponse(Record):
    __slots__ = _fields = ("shard", "seq", "batch")

    def __init__(self, shard: int, seq: int, batch: Batch | None):
        self.shard = shard
        self.seq = seq
        self.batch = batch


# --- timers -----------------------------------------------------------------------
# A node schedules these to itself; none crosses the network.


class ProposeKick(Record):
    """A primary batcher's proposal timer. Only the latest one scheduled is
    live: a kick whose ``at`` is not the batcher's ``propose_at`` was
    superseded by an earlier one and does nothing."""

    __slots__ = _fields = ("at",)

    def __init__(self, at: int):
        self.at = at


class BucketTick(Record):
    __slots__ = _fields = ()


class RoundTick(Record):
    __slots__ = _fields = ()


class FetchRetry(Record):
    __slots__ = _fields = ("key", "attempt")

    def __init__(self, key: BatchKey, attempt: int):
        self.key = key
        self.attempt = attempt
