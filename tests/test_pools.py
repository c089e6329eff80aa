import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from shardbft.core import Transaction
from shardbft.crypto import SCHEME_TEST_MAC, Signature
from shardbft.pools import (
    INSERT_ACCEPTED,
    INSERT_BACKPRESSURE,
    INSERT_DUPLICATE,
    RequestPool,
)

from helpers import make_tx


def _txs(client_keys, n, tag=b""):
    rng = random.Random(len(tag) + n)
    return [make_tx(i % 4, tag + rng.randbytes(8) + bytes([i % 251]), client_keys) for i in range(n)]


def _ids(txs):
    return [t.tx_id for t in txs]


def test_primary_insert_and_duplicate(client_keys):
    pool = RequestPool(max_batch_size=10)
    tx = _txs(client_keys, 1)[0]
    assert pool.insert(tx) == INSERT_ACCEPTED
    assert len(pool.tx_index) == 1
    assert pool.insert(tx) == INSERT_DUPLICATE


def test_primary_seals_at_max_batch_size(client_keys):
    pool = RequestPool(max_batch_size=5)
    txs = _txs(client_keys, 6)
    for tx in txs[:4]:
        pool.insert(tx)
    assert not pool.has_sealed() and pool.has_partial()
    pool.insert(txs[4])
    assert pool.has_sealed() and not pool.has_partial()
    pool.insert(txs[5])
    assert pool.has_sealed() and pool.has_partial()


def test_primary_retrieval_is_fifo_and_disjoint(client_keys):
    pool = RequestPool(max_batch_size=5)
    txs = _txs(client_keys, 10)
    for tx in txs:
        pool.insert(tx)
    first = pool.next_batch()
    second = pool.next_batch()
    assert _ids(first) == _ids(txs[:5])
    assert _ids(second) == _ids(txs[5:])
    assert not set(_ids(first)) & set(_ids(second))
    assert len(pool.tx_index) == 0


def test_primary_retrieval_constant_ops(client_keys):
    # Cutting one batch leaves the rest of the pool untouched: the buckets
    # behind the cut stay the same dict objects with the same contents, and
    # the front bucket loses only the batch's txs.
    pool = RequestPool(max_batch_size=2)
    txs = _txs(client_keys, 400, b"b")
    for i, tx in enumerate(txs):
        pool.insert(tx)
        if i % 100 == 99:
            pool.seal(now=i)
    front, *behind = [bucket.txs for bucket in pool.sealed]
    contents = [dict(txs) for txs in behind]
    assert _ids(pool.next_batch()) == _ids(txs[:2])
    assert pool.sealed[0].txs is front and list(front) == _ids(txs[2:100])
    rest = [bucket.txs for bucket in pool.sealed][1:]
    assert len(rest) == len(behind) == 3
    assert all(now is before for now, before in zip(rest, behind)) and rest == contents


def test_primary_backpressure(client_keys):
    pool = RequestPool(max_batch_size=10, capacity=3)
    txs = _txs(client_keys, 4)
    for tx in txs[:3]:
        assert pool.insert(tx) == INSERT_ACCEPTED
    assert pool.insert(txs[3]) == INSERT_BACKPRESSURE


def test_primary_push_front(client_keys):
    pool = RequestPool(max_batch_size=4)
    txs = _txs(client_keys, 3, b"norm")
    for tx in txs:
        pool.insert(tx)
    redo = _txs(client_keys, 6, b"redo")
    pool.push_front(redo)
    # Re-proposal batches are cut at max_batch_size, and the short last one
    # counts as sealed too.
    assert _ids(pool.next_batch()) == _ids(redo[:4])
    assert pool.has_sealed()
    assert _ids(pool.next_batch()) == _ids(redo[4:])
    assert not pool.has_sealed() and pool.has_partial()
    assert _ids(pool.next_batch()) == _ids(txs)


def test_push_front_queues_a_repeated_tx_once(client_keys):
    # A forked ledger can hold a batch and its pulled re-proposal, so a new
    # primary's re-proposal list can name a tx twice.
    pool = RequestPool(max_batch_size=4)
    a, b, c = _txs(client_keys, 3, b"redo")
    pool.push_front([a, b, a, c, b])
    assert _ids(pool.next_batch()) == _ids([a, b, c])
    assert not pool.has_sealed() and not pool.tx_index


def test_secondary_buckets_seal_and_remove(client_keys):
    pool = RequestPool(max_batch_size=10)
    txs = _txs(client_keys, 6)
    for tx in txs[:3]:
        pool.insert(tx)
    pool.seal(now=100)
    for tx in txs[3:]:
        pool.insert(tx)
    assert len(pool.sealed) == 1 and len(pool.open_bucket) == 3
    # Persisting a batch removes its txs wherever they sit; empty sealed
    # buckets are garbage collected.
    pool.remove(_ids(txs[:3]))
    assert not pool.sealed
    assert len(pool.tx_index) == 3


def test_secondary_duplicate_and_single_bucket_membership(client_keys):
    pool = RequestPool(max_batch_size=10)
    tx = _txs(client_keys, 1)[0]
    assert pool.insert(tx) == INSERT_ACCEPTED
    pool.seal(now=10)
    assert pool.insert(tx) == INSERT_DUPLICATE
    assert len(pool.tx_index) == 1


def test_secondary_drain_preserves_order(client_keys):
    # Cutting batches until the pool is empty drains it in arrival order,
    # across bucket boundaries.
    pool = RequestPool(max_batch_size=4)
    txs = _txs(client_keys, 9)
    for i, tx in enumerate(txs):
        pool.insert(tx)
        if i % 3 == 2:
            pool.seal(now=i)
    cut = pool.next_batch() + pool.next_batch() + pool.next_batch()
    assert _ids(cut) == _ids(txs)
    assert len(pool.tx_index) == 0 and not pool.sealed


def test_new_term_drops_redo_and_restarts_clocks(client_keys):
    pool = RequestPool(max_batch_size=2)
    txs = _txs(client_keys, 3, b"kept")
    pool.insert(txs[0])
    pool.seal(now=0)
    pool.insert(txs[1])
    pool.seal(now=50)
    pool.insert(txs[2])
    redo = _txs(client_keys, 3, b"redo")
    pool.push_front(redo)
    fwd, _ = pool.scan(now=300, t_forward=200, t_complain=300)
    assert _ids(fwd) == _ids(txs[:2])
    pool.new_term(now=400)
    assert not pool.redo and set(pool.tx_index) == set(_ids(txs))
    assert [(b.sealed_at, b.forwarded_at) for b in pool.sealed] == [(400, None)] * 3
    assert _ids(pool.next_batch()) == _ids(txs[:2])


# --- censorship scan ------------------------------------------------------------


def test_scan_pool_forward_then_complain(client_keys):
    pool = RequestPool(max_batch_size=10)
    txs = [make_tx(0, bytes([i + 1]) * 3, client_keys) for i in range(3)]
    for tx in txs:
        pool.insert(tx)
    fwd, complain = pool.scan(now=0, t_forward=200, t_complain=300)
    assert not fwd and not complain  # just sealed
    fwd, complain = pool.scan(now=200, t_forward=200, t_complain=300)
    assert set(_ids(fwd)) == set(_ids(txs))
    assert not complain
    fwd, complain = pool.scan(now=499, t_forward=200, t_complain=300)
    assert not fwd and not complain
    fwd, complain = pool.scan(now=500, t_forward=200, t_complain=300)
    assert not fwd and complain


def test_scan_pool_emptied_bucket_no_action(client_keys):
    pool = RequestPool(max_batch_size=10)
    tx = make_tx(0, b"stuck?", client_keys)
    pool.insert(tx)
    pool.scan(now=0, t_forward=200, t_complain=300)
    pool.remove([tx.tx_id])
    fwd, complain = pool.scan(now=10_000, t_forward=200, t_complain=300)
    assert not fwd and not complain


# --- the pool against a list-of-chunks model ---------------------------------------

TXS = [Transaction(i % 4, bytes([i]), Signature(SCHEME_TEST_MAC, b"\x00" * 32)) for i in range(24)]
_TX = st.integers(0, len(TXS) - 1)


class RequestPoolMachine(RuleBasedStateMachine):
    """Random steps against a model: re-proposal chunks in front of the
    arrivals, and batches cut from the front of either."""

    @initialize(size=st.integers(1, 4), capacity=st.none() | st.integers(1, 12))
    def start(self, size, capacity):
        self.pool = RequestPool(size, capacity)
        self.size, self.capacity = size, capacity
        self.redo: list[list[Transaction]] = []
        self.arrivals: list[Transaction] = []
        self.now = 0

    def held(self) -> set[bytes]:
        return {tx.tx_id for chunk in self.redo for tx in chunk} | set(_ids(self.arrivals))

    @rule(i=_TX)
    def insert(self, i):
        tx = TXS[i]
        if tx.tx_id in self.held():
            expected = INSERT_DUPLICATE
        elif self.capacity is not None and len(self.held()) >= self.capacity:
            expected = INSERT_BACKPRESSURE
        else:
            expected = INSERT_ACCEPTED
            self.arrivals.append(tx)
        assert self.pool.insert(tx) == expected

    @rule(picks=st.lists(_TX, max_size=9))
    def push_front(self, picks):
        fresh = [TXS[i] for i in dict.fromkeys(picks) if TXS[i].tx_id not in self.held()]
        chunks = [fresh[i : i + self.size] for i in range(0, len(fresh), self.size)]
        self.redo[:0] = chunks
        self.pool.push_front([TXS[i] for i in picks])

    @rule()
    def next_batch(self):
        if self.redo:
            expected = self.redo.pop(0)
        else:
            expected, self.arrivals = self.arrivals[: self.size], self.arrivals[self.size :]
        assert _ids(self.pool.next_batch()) == _ids(expected)

    @rule(picks=st.lists(_TX, max_size=6))
    def remove(self, picks):
        gone = set(_ids(TXS[i] for i in picks))
        self.arrivals = [tx for tx in self.arrivals if tx.tx_id not in gone]
        self.pool.remove(list(gone))

    @rule(step=st.integers(1, 100))
    def seal(self, step):
        self.now += step
        self.pool.seal(self.now)

    @rule()
    def new_term(self):
        self.redo = []
        self.pool.new_term(self.now)

    @invariant()
    def matches_model(self):
        pool = self.pool
        assert pool.has_sealed() == (bool(self.redo) or len(self.arrivals) >= self.size)
        assert pool.has_partial() == (len(self.arrivals) % self.size != 0)
        assert set(pool.tx_index) == self.held()


TestRequestPool = RequestPoolMachine.TestCase
TestRequestPool.settings = settings(derandomize=True, max_examples=60, stateful_step_count=40, deadline=None)
