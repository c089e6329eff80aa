import random

from shardbft.pools import (
    INSERT_ACCEPTED,
    INSERT_BACKPRESSURE,
    INSERT_DUPLICATE,
    PrimaryPool,
    SecondaryPool,
)

from helpers import make_tx


def _txs(client_keys, n, tag=b""):
    rng = random.Random(len(tag) + n)
    return [make_tx(i % 4, tag + rng.randbytes(8) + bytes([i % 251]), client_keys) for i in range(n)]


def test_primary_insert_and_duplicate(client_keys):
    pool = PrimaryPool(max_batch_size=10)
    tx = _txs(client_keys, 1)[0]
    assert pool.insert(tx) == INSERT_ACCEPTED
    assert len(pool.tx_index) == 1
    assert pool.insert(tx) == INSERT_DUPLICATE


def test_primary_seals_at_max_batch_size(client_keys):
    pool = PrimaryPool(max_batch_size=5)
    for tx in _txs(client_keys, 5):
        pool.insert(tx)
    assert pool.has_sealed()
    assert not pool.pending


def test_primary_retrieval_is_fifo_and_disjoint(client_keys):
    pool = PrimaryPool(max_batch_size=5)
    txs = _txs(client_keys, 10)
    for tx in txs:
        pool.insert(tx)
    first = pool.next_batch()
    second = pool.next_batch()
    assert [t.tx_id for t in first] == [t.tx_id for t in txs[:5]]
    assert [t.tx_id for t in second] == [t.tx_id for t in txs[5:]]
    assert not set(t.tx_id for t in first) & set(t.tx_id for t in second)
    assert len(pool.tx_index) == 0


def test_primary_retrieval_constant_ops(client_keys):
    # Next-batch touches only the queue head: the 199 sealed batches queued
    # behind it stay the same list objects, in the same order, unchanged.
    pool = PrimaryPool(max_batch_size=2)
    for tx in _txs(client_keys, 400, b"b"):
        pool.insert(tx)
    head, *behind = pool.full_queue
    contents = [list(batch) for batch in behind]
    assert pool.next_batch() is head
    assert len(pool.full_queue) == len(behind) == 199
    assert all(now is before for now, before in zip(pool.full_queue, behind))
    assert [list(batch) for batch in pool.full_queue] == contents


def test_primary_backpressure(client_keys):
    pool = PrimaryPool(max_batch_size=10, capacity=3)
    txs = _txs(client_keys, 4)
    for tx in txs[:3]:
        assert pool.insert(tx) == INSERT_ACCEPTED
    assert pool.insert(txs[3]) == INSERT_BACKPRESSURE


def test_primary_push_front(client_keys):
    pool = PrimaryPool(max_batch_size=4)
    txs = _txs(client_keys, 4, b"norm")
    for tx in txs:
        pool.insert(tx)
    redo = _txs(client_keys, 6, b"redo")
    added = pool.push_front(redo)
    assert added == 6
    first = pool.next_batch()
    second = pool.next_batch()
    assert [t.tx_id for t in first] == [t.tx_id for t in redo[:4]]
    assert [t.tx_id for t in second] == [t.tx_id for t in redo[4:]]
    assert [t.tx_id for t in pool.next_batch()] == [t.tx_id for t in txs]


def test_secondary_buckets_seal_and_remove(client_keys):
    pool = SecondaryPool()
    txs = _txs(client_keys, 6)
    for tx in txs[:3]:
        pool.insert(tx)
    pool.seal(now=100)
    for tx in txs[3:]:
        pool.insert(tx)
    assert len(pool.sealed) == 1 and len(pool.open_bucket) == 3
    # Persisting a batch removes its txs wherever they sit; empty sealed
    # buckets are garbage collected.
    pool.remove([t.tx_id for t in txs[:3]])
    assert not pool.sealed
    assert len(pool.tx_index) == 3


def test_secondary_duplicate_and_single_bucket_membership(client_keys):
    pool = SecondaryPool()
    tx = _txs(client_keys, 1)[0]
    assert pool.insert(tx) == INSERT_ACCEPTED
    pool.seal(now=10)
    assert pool.insert(tx) == INSERT_DUPLICATE
    assert len(pool.tx_index) == 1


def test_secondary_drain_preserves_order(client_keys):
    pool = SecondaryPool()
    txs = _txs(client_keys, 9)
    for i, tx in enumerate(txs):
        pool.insert(tx)
        if i % 3 == 2:
            pool.seal(now=i)
    drained = pool.drain()
    assert [t.tx_id for t in drained] == [t.tx_id for t in txs]
    assert len(pool.tx_index) == 0
