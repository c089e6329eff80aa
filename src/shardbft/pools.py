"""The batcher memory pool, one for every role.

Transactions wait in arrival order in buckets stamped with the time they
were sealed, and re-proposal batches wait ahead of them. A primary cuts
batches from the front, re-proposals first. A secondary removes what it
persists and scans the bucket ages: a sealed bucket that stays non-empty too
long holds transactions that are not making it into batches. A term change
drops the re-proposal front and restarts the bucket clocks; the pool itself
does not change with the role.
"""

from __future__ import annotations

from collections import deque
from itertools import islice

from .core import Transaction
from .record import Record

INSERT_ACCEPTED = "accepted"
INSERT_DUPLICATE = "duplicate"
INSERT_BACKPRESSURE = "backpressure"


class Bucket(Record):
    __slots__ = _fields = ("sealed_at", "txs", "forwarded_at")

    def __init__(self, sealed_at: int, txs: dict[bytes, Transaction], forwarded_at: int | None = None):
        self.sealed_at = sealed_at
        self.txs = txs
        self.forwarded_at = forwarded_at


class RequestPool:
    """Bucketed arrival-order pool with a FIFO of re-proposal batches in front."""

    def __init__(self, max_batch_size: int, capacity: int | None = None):
        self.max_batch_size = max_batch_size
        self.capacity = capacity
        self.redo: deque[list[Transaction]] = deque()
        self.sealed: deque[Bucket] = deque()
        self.open_bucket: dict[bytes, Transaction] = {}
        self.bucketed = 0  # txs in the open and sealed buckets
        # tx id -> its bucket's txs, or None while it waits for re-proposal
        self.tx_index: dict[bytes, dict[bytes, Transaction] | None] = {}

    def insert(self, tx: Transaction) -> str:
        tx_id = tx.tx_id
        if tx_id in self.tx_index:
            return INSERT_DUPLICATE
        if self.capacity is not None and len(self.tx_index) >= self.capacity:
            return INSERT_BACKPRESSURE
        self.tx_index[tx_id] = self.open_bucket
        self.open_bucket[tx_id] = tx
        self.bucketed += 1
        return INSERT_ACCEPTED

    def push_front(self, txs: list[Transaction]) -> None:
        """Queue the txs not held yet for re-proposal, each once, ahead of
        everything else, in batches of ``max_batch_size`` (the last may be
        short); capacity does not bound them."""
        index, fresh = self.tx_index, []
        for tx in txs:
            if tx.tx_id not in index:  # marked as taken, so a repeat in txs is skipped
                index[tx.tx_id] = None
                fresh.append(tx)
        size = self.max_batch_size
        self.redo.extendleft(reversed([fresh[i : i + size] for i in range(0, len(fresh), size)]))

    def has_sealed(self) -> bool:
        """A whole batch is ready: a re-proposal batch or a full one of arrivals."""
        return bool(self.redo) or self.bucketed >= self.max_batch_size

    def has_partial(self) -> bool:
        """The arrivals end in a batch that is not yet full."""
        return self.bucketed % self.max_batch_size != 0

    def next_batch(self) -> list[Transaction]:
        """Cut the front batch: the oldest re-proposal batch, else the oldest
        ``max_batch_size`` arrivals, else every arrival. Costs O(batch)."""
        index = self.tx_index
        if self.redo:
            txs = self.redo.popleft()
            for tx in txs:
                index.pop(tx.tx_id, None)
            return txs
        want = min(self.max_batch_size, self.bucketed)
        self.bucketed -= want
        txs = []
        while len(txs) < want:
            front = self.sealed[0].txs if self.sealed else self.open_bucket
            for tx_id in list(islice(front, want - len(txs))):
                del index[tx_id]
                txs.append(front.pop(tx_id))
            if self.sealed and not front:
                self.sealed.popleft()
        return txs

    def seal(self, now: int) -> None:
        if self.open_bucket:
            self.sealed.append(Bucket(now, self.open_bucket))
            self.open_bucket = {}

    def remove(self, tx_ids) -> None:
        """Drop arrivals that appeared in a persisted batch; GC empty buckets.
        A tx queued for re-proposal stays queued."""
        index = self.tx_index
        for tx_id in tx_ids:
            txs = index.get(tx_id)
            if txs is not None:
                del index[tx_id], txs[tx_id]
                self.bucketed -= 1
        while self.sealed and not self.sealed[0].txs:
            self.sealed.popleft()

    def scan(self, now: int, t_forward: int, t_complain: int) -> tuple[list[Transaction], bool]:
        """Censorship sweep: seal the open bucket, return (txs to forward to
        the primary, complain?). Buckets older than t_forward get their txs
        forwarded once; a bucket still non-empty t_complain after forwarding
        triggers a complaint."""
        self.seal(now)
        to_forward: list[Transaction] = []
        complain = False
        for bucket in self.sealed:
            if not bucket.txs:
                continue
            if bucket.forwarded_at is None:
                if now - bucket.sealed_at >= t_forward:
                    bucket.forwarded_at = now
                    to_forward.extend(bucket.txs.values())
            elif now - bucket.forwarded_at >= t_complain:
                complain = True
        return to_forward, complain

    def new_term(self, now: int) -> None:
        """Drop the re-proposal front and restart the censorship clocks: each
        term recomputes what to re-propose and gives its primary a fresh start."""
        index = self.tx_index
        for txs in self.redo:
            for tx in txs:
                index.pop(tx.tx_id, None)
        self.redo.clear()
        for bucket in self.sealed:
            bucket.sealed_at = now
            bucket.forwarded_at = None


# The names of the two pools this one replaced. Their only reader is
# perfbench, whose tracer wraps the pool methods of both: SecondaryPool
# defines none of its own, so each pool call is counted once.
PrimaryPool = RequestPool


class SecondaryPool(RequestPool):
    pass
