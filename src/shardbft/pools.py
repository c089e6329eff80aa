"""Batcher memory pools.

The proposing side keeps a pending batch being filled plus a FIFO of sealed
batches, so taking the next batch is O(1) regardless of pool size. The
non-proposing side keeps transactions in periodically sealed buckets whose
timestamps drive censorship detection: a sealed bucket that stays non-empty
too long means its transactions are not making it into batches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import Transaction

INSERT_ACCEPTED = "accepted"
INSERT_DUPLICATE = "duplicate"
INSERT_BACKPRESSURE = "backpressure"


class PrimaryPool:
    """Bundling pool: pending batch + FIFO of sealed batches, O(1) retrieval."""

    def __init__(self, max_batch_size: int, capacity: int | None = None):
        self.max_batch_size = max_batch_size
        self.capacity = capacity
        self.pending: list[Transaction] = []
        self.full_queue: deque[list[Transaction]] = deque()
        self.tx_index: set[bytes] = set()

    def insert(self, tx: Transaction) -> str:
        tx_id = tx.tx_id
        if tx_id in self.tx_index:
            return INSERT_DUPLICATE
        if self.capacity is not None and len(self.tx_index) >= self.capacity:
            return INSERT_BACKPRESSURE
        self.tx_index.add(tx_id)
        self.pending.append(tx)
        if len(self.pending) >= self.max_batch_size:
            self.full_queue.append(self.pending)
            self.pending = []
        return INSERT_ACCEPTED

    def push_front(self, txs: list[Transaction]) -> int:
        """Queue transactions ahead of everything else (re-proposal path)."""
        fresh = [tx for tx in txs if tx.tx_id not in self.tx_index]
        for tx in fresh:
            self.tx_index.add(tx.tx_id)
        # Chunk in order, then prepend so the first chunk ends up at the head.
        chunks = [fresh[i : i + self.max_batch_size] for i in range(0, len(fresh), self.max_batch_size)]
        for chunk in reversed(chunks):
            self.full_queue.appendleft(chunk)
        return len(fresh)

    def has_sealed(self) -> bool:
        return bool(self.full_queue)

    def next_batch(self) -> list[Transaction]:
        """Dequeue the oldest sealed batch, or seal and take the pending one."""
        if self.full_queue:
            txs = self.full_queue.popleft()
        else:
            txs = self.pending
            self.pending = []
        for tx in txs:
            self.tx_index.discard(tx.tx_id)
        return txs

    def drain(self) -> list[Transaction]:
        out: list[Transaction] = []
        while self.full_queue:
            out.extend(self.full_queue.popleft())
        out.extend(self.pending)
        self.pending = []
        self.tx_index.clear()
        return out


@dataclass
class Bucket:
    sealed_at: int
    txs: dict[bytes, Transaction]
    forwarded_at: int | None = None


class SecondaryPool:
    """Bucketed tracking pool for censorship detection."""

    def __init__(self, capacity: int | None = None):
        self.capacity = capacity
        self.open_bucket: dict[bytes, Transaction] = {}
        self.sealed: deque[Bucket] = deque()
        self.tx_index: set[bytes] = set()

    def insert(self, tx: Transaction) -> str:
        tx_id = tx.tx_id
        if tx_id in self.tx_index:
            return INSERT_DUPLICATE
        if self.capacity is not None and len(self.tx_index) >= self.capacity:
            return INSERT_BACKPRESSURE
        self.tx_index.add(tx_id)
        self.open_bucket[tx_id] = tx
        return INSERT_ACCEPTED

    def seal(self, now: int) -> None:
        if self.open_bucket:
            self.sealed.append(Bucket(now, self.open_bucket))
            self.open_bucket = {}

    def remove(self, tx_ids) -> None:
        """Drop transactions that appeared in a persisted batch; GC empty buckets."""
        hits = self.tx_index.intersection(tx_ids)
        if not hits:
            return
        self.tx_index.difference_update(hits)
        for tx_id in hits:
            self.open_bucket.pop(tx_id, None)
        for bucket in self.sealed:
            for tx_id in hits:
                bucket.txs.pop(tx_id, None)
        while self.sealed and not self.sealed[0].txs:
            self.sealed.popleft()

    def reset_timers(self, now: int) -> None:
        """Restart censorship clocks, e.g. when a new term brings a new primary."""
        for bucket in self.sealed:
            bucket.sealed_at = now
            bucket.forwarded_at = None

    def drain(self) -> list[Transaction]:
        out: list[Transaction] = []
        while self.sealed:
            out.extend(self.sealed.popleft().txs.values())
        out.extend(self.open_bucket.values())
        self.open_bucket = {}
        self.tx_index.clear()
        return out
