import random
from collections import Counter

from shardbft import messages as msg
from shardbft.batcher import BatcherNode
from shardbft.core import Transaction
from shardbft.crypto import Signature
from shardbft.pools import INSERT_ACCEPTED, INSERT_BACKPRESSURE, INSERT_DUPLICATE
from shardbft.router import (
    REASON_BAD_SIGNATURE,
    REASON_MALFORMED,
    REASON_UNKNOWN_CLIENT,
    RouterNode,
    map_to_shard,
    validate_transaction,
)

from helpers import StubCtx, make_deployment, make_tx


def _valid(tx, client_directory, max_tx_size=1 << 20):
    return validate_transaction(tx, client_directory, max_tx_size)


def test_valid_tx_passes(client_directory, client_keys):
    tx = make_tx(1, b"payload", client_keys)
    assert _valid(tx, client_directory) is None


def test_flipped_payload_bit_fails_signature(client_directory, client_keys):
    rng = random.Random(2)
    for _ in range(50):
        tx = make_tx(2, rng.randbytes(16), client_keys)
        payload = bytearray(tx.payload)
        payload[rng.randrange(len(payload))] ^= 1 << rng.randrange(8)
        bad = Transaction(tx.client_id, bytes(payload), tx.signature)
        assert _valid(bad, client_directory) == REASON_BAD_SIGNATURE


def test_unknown_client_rejected(client_directory, scheme):
    tx = Transaction(999, b"payload", Signature(scheme, b"\x00" * 32))
    assert _valid(tx, client_directory) == REASON_UNKNOWN_CLIENT


def test_malformed_rejected(client_directory, client_keys, scheme):
    empty = Transaction(1, b"", Signature(scheme, b"\x00" * 32))
    assert _valid(empty, client_directory) == REASON_MALFORMED
    big = make_tx(1, b"x" * 32, client_keys)
    assert _valid(big, client_directory, max_tx_size=16) == REASON_MALFORMED


def test_map_to_shard_single_shard_and_determinism():
    rng = random.Random(4)
    for _ in range(100):
        tx_id = rng.randbytes(32)
        assert map_to_shard(tx_id, 1) == 0
        s = map_to_shard(tx_id, 8)
        assert s == map_to_shard(tx_id, 8)
        assert 0 <= s < 8


def test_map_to_shard_uniformity():
    # Brute-force count over 100k random tx ids; each of 8 shards should get
    # 12500 +/- 5%.
    rng = random.Random(6)
    counts = Counter(map_to_shard(rng.randbytes(32), 8) for _ in range(100_000))
    for shard in range(8):
        assert abs(counts[shard] - 12_500) <= 625, counts


def test_two_router_instances_agree(client_directory, client_keys):
    d = make_deployment(client_directory=client_directory, shards=8)
    routers = [RouterNode(d, 0), RouterNode(d, 1)]  # same deployment, two parties
    rng = random.Random(8)
    for _ in range(200):
        tx = make_tx(rng.randrange(8), rng.randbytes(12), client_keys)
        assert validate_transaction(tx, d.client_directory, 1 << 20) is None
        shards = []
        for router in routers:
            ctx = StubCtx()
            router.handle(msg.SubmitTx(tx, None), ctx)
            (dest, _fwd), = ctx.sent
            shards.append(d.batcher[router.party].index(dest))
        assert shards == [map_to_shard(tx.tx_id, 8)] * 2


def _router(client_directory, shards=2):
    return RouterNode(make_deployment(client_directory=client_directory, shards=shards), 0)


def _answers(txs, submission_ids, client_directory):
    """The replies of party 0's batcher, with room for one pooled tx, to
    each ``SubmitTx(tx, id)`` in turn."""
    batcher = BatcherNode(make_deployment(client_directory=client_directory, pool_capacity=1), 0, 0)
    ctx = StubCtx()
    for tx, submission_id in zip(txs, submission_ids):
        batcher.handle(msg.SubmitTx(tx, submission_id), ctx)
    assert all(dest == batcher.d.hub for dest, _ in ctx.sent)
    return [reply for _, reply in ctx.sent]


def test_submission_ack_after_enqueue_confirmation(client_directory, client_keys):
    router = _router(client_directory)
    ctx = StubCtx()
    tx = make_tx(1, b"payload", client_keys)
    submit = msg.SubmitTx(tx, 7)
    router.handle(submit, ctx)
    (dest, fwd), = ctx.take_sent()
    assert dest == router.d.batcher[0][map_to_shard(tx.tx_id, 2)]
    assert fwd is submit
    # The router sends no reply: the ack is the batcher's own, sent to the
    # hub once it has enqueued the tx.
    answer, = _answers([tx], [7], client_directory)
    assert answer == msg.SubmissionReply(7, 0, True, INSERT_ACCEPTED)


def test_invalid_submission_rejected_without_forwarding(client_directory, scheme):
    router = _router(client_directory)
    ctx = StubCtx()
    tx = Transaction(999, b"payload", Signature(scheme, b"\x00" * 32))
    router.handle(msg.SubmitTx(tx, 3), ctx)
    (dest, reply), = ctx.take_sent()
    assert dest == router.d.hub and not reply.ok and reply.reason == REASON_UNKNOWN_CLIENT


def test_duplicate_enqueue_still_acks(client_directory, client_keys):
    tx = make_tx(1, b"payload", client_keys)
    first, again = _answers([tx, tx], [1, 1], client_directory)
    assert first.ok and first.reason == INSERT_ACCEPTED
    assert again.ok and again.reason == INSERT_DUPLICATE


def test_backpressure_rejects(client_directory, client_keys):
    txs = [make_tx(1, payload, client_keys) for payload in (b"one", b"two")]
    accepted, full = _answers(txs, [1, 2], client_directory)
    assert accepted.ok
    assert full == msg.SubmissionReply(2, 0, False, INSERT_BACKPRESSURE)


def test_peer_forward_has_no_reply(client_directory, client_keys):
    router = _router(client_directory)
    ctx = StubCtx()
    tx = make_tx(1, b"payload", client_keys)
    submit = msg.SubmitTx(tx, None)
    router.handle(submit, ctx)
    (dest, fwd), = ctx.take_sent()
    assert fwd is submit
    assert _answers([tx], [None], client_directory) == []
