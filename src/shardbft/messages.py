"""Typed messages exchanged between nodes, and the node runtime interface.

Every node is a single-threaded state machine with a ``handle(message, ctx)``
entry point. The context is provided by the host (the simulator, or a unit
test stub) and is the only way a node interacts with the world.

Messages are plain slotted records, not frozen ones: a frozen dataclass
stores each field through ``object.__setattr__``, which roughly triples the
cost of building one, and a run builds about one per event. No node
assigns to a message once it is sent (``tests/test_regression.py`` checks
every message of a run).

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

from dataclasses import dataclass
from typing import Protocol

from .core import Batch, BatchKey, BlockHeader, Transaction
from .crypto import Signature


class NodeContext(Protocol):
    def now(self) -> int:
        """Current virtual time in microseconds."""

    def send(self, dest: int, message) -> None:
        """Deliver a message to another node, subject to the network model."""

    def schedule(self, delay_us: int, message) -> None:
        """Deliver a message back to the calling node after a delay."""


# --- client <-> router <-> batcher -----------------------------------------


@dataclass(slots=True)
class SubmitTx:
    tx: Transaction
    submission_id: int | None  # the client's tx index; None for a secondary's forward


@dataclass(slots=True)
class SubmissionReply:
    submission_id: int
    party: int  # the answering party, whose batcher enqueued (or router rejected) the tx
    ok: bool
    reason: str  # a pools.INSERT_* status, or the router's rejection reason


# --- batch dissemination -----------------------------------------------------


@dataclass(slots=True)
class PullRequest:
    seq: int
    requester_party: int


@dataclass(slots=True)
class PullResponse:
    batch: Batch | None
    responder_party: int


# --- consensus ----------------------------------------------------------------


@dataclass(slots=True)
class RoundDelivery:
    round_no: int
    events: tuple


@dataclass(slots=True)
class HeaderShare:
    block_seq: int
    header_hash: bytes
    signer: int
    signature: Signature


@dataclass(slots=True)
class PublishedHeader:
    header: BlockHeader
    quorum_sigs: tuple[tuple[int, Signature], ...]


@dataclass(slots=True)
class OrderedUpdate:
    """What one ordered round decided for a shard, consensus -> own batcher:
    the shard's keys that won their slots, and its new term if it changed.
    A round that decided neither for a shard sends that shard nothing."""

    thresholded: tuple[BatchKey, ...]
    new_term: int | None


# --- assembler ------------------------------------------------------------------


@dataclass(slots=True)
class AssemblerPull:
    seq: int
    requester_party: int


@dataclass(slots=True)
class AssemblerPullResponse:
    shard: int
    seq: int
    batch: Batch | None


# --- timers -----------------------------------------------------------------------
# A node schedules these to itself; none crosses the network.


@dataclass(slots=True)
class ProposeKick:
    """A primary batcher's proposal timer. Only the latest one scheduled is
    live: a kick whose ``at`` is not the batcher's ``propose_at`` was
    superseded by an earlier one and does nothing."""

    at: int


@dataclass(slots=True)
class BucketTick:
    pass


@dataclass(slots=True)
class RoundTick:
    pass


@dataclass(slots=True)
class FetchRetry:
    key: BatchKey
    attempt: int
