import math
import random

import pytest

from shardbft import messages as msg
from shardbft.batcher import (
    BatcherNode,
    all_txs_valid,
    required_sample_size,
    sample_verify,
    verification_rng,
)
from shardbft.core import Batch, BatchAttestationShare, ComplaintVote, Transaction
from shardbft.crypto import Signature
from shardbft.router import validate_transaction

from helpers import StubCtx, make_deployment, make_tx

US = 1_000_000

def _node(party, client_directory, party_keys, n=4, sample_count=30, **over):
    protocol = dict(
        max_batch_size=100,
        max_batch_latency_us=100_000,
        min_propose_interval_us=5_000,
        bucket_period_us=50_000,
        t_forward_us=200_000,
        t_complain_us=200_000,
        epoch_length_us=10 * US,
        sample_count=sample_count,
        max_tx_size=1 << 20,
    )
    protocol.update(over)
    return BatcherNode(make_deployment(party_keys, client_directory, n=n, **protocol), party, 0)


def _pump(node, ctx, until):
    while True:
        due = [(t, m) for t, m in ctx.timers if t <= until]
        if not due:
            break
        due.sort(key=lambda tm: tm[0])
        t, m = due[0]
        ctx.timers.remove((t, m))
        ctx.time = max(ctx.time, t)
        node.handle(m, ctx)


def _sent_of(ctx, kind):
    return [(d, m) for d, m in ctx.sent if isinstance(m, kind)]


# --- sampling math -----------------------------------------------------------


def test_required_sample_size_reference_values():
    p = 2.0**-30
    assert required_sample_size(0.5, p) == 30
    assert required_sample_size(0.75, p) == 73  # ceil(72.28)
    assert required_sample_size(0.95, p) == 406  # ceil(405.40)


def test_required_sample_size_rejects_degenerate():
    for alpha in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            required_sample_size(alpha, 0.5)
    for p in (0.0, 1.0):
        with pytest.raises(ValueError):
            required_sample_size(0.5, p)


def test_sample_verify_all_valid(client_keys, client_directory):
    txs = [make_tx(c % 4, bytes([c + 1]) * 4, client_keys) for c in range(10)]
    batch = Batch(0, 0, 0, 0, tuple(txs))
    ok = lambda tx: validate_transaction(tx, client_directory, 1 << 20) is None
    assert sample_verify(batch, 5, random.Random(1), ok) is None


def test_sample_verify_all_invalid_certain(client_directory):
    txs = [Transaction(90 + i, b"x", Signature("test_mac", b"\x00" * 32)) for i in range(100)]
    batch = Batch(0, 0, 0, 0, tuple(txs))
    ok = lambda tx: validate_transaction(tx, client_directory, 1 << 20) is None
    for seed in range(20):
        found = sample_verify(batch, 1, random.Random(seed), ok)
        assert found is not None


def test_sample_verify_miss_rate_matches_alpha_power_k():
    # Half the indices are invalid; the analytic miss probability is
    # alpha^K. Monte Carlo with K=2 over 20k trials should land within
    # 3 standard errors of 0.25.
    n = 100
    invalid = set(range(0, n, 2))
    txs = tuple(Transaction(0, bytes([i + 1]), Signature("test_mac", b"")) for i in range(n))
    batch = Batch(0, 0, 0, 0, txs)
    is_valid = lambda tx: (tx.payload[0] - 1) not in invalid
    trials = 20_000
    k = 2
    misses = sum(
        1 for s in range(trials) if sample_verify(batch, k, random.Random(s), is_valid) is None
    )
    expected = 0.5**k
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(misses / trials - expected) <= 3 * sigma


def test_sample_verify_empty_and_small_batches():
    empty = Batch(0, 0, 0, 0, ())
    assert sample_verify(empty, 30, random.Random(0), lambda tx: False) is None
    one = Batch(0, 0, 0, 0, (Transaction(0, b"x", Signature("test_mac", b"")),))
    assert sample_verify(one, 30, random.Random(0), lambda tx: False) == 0


def test_verification_rng_deterministic():
    a = verification_rng(1, 2, 3, 4)
    b = verification_rng(1, 2, 3, 4)
    assert [a.randrange(1000) for _ in range(10)] == [b.randrange(1000) for _ in range(10)]
    c = verification_rng(1, 2, 3, 5)
    assert [c.randrange(1000) for _ in range(10)] != [
        verification_rng(1, 2, 3, 4).randrange(1000) for _ in range(10)
    ]


def test_all_txs_valid_is_judged_in_each_deployment(client_keys, client_directory, party_keys):
    # The verdict is cached on the batch, but a batch of known clients'
    # txs is still refused by a deployment that does not know them.
    batch = Batch(0, 0, 0, 0, tuple(make_tx(c, b"tx", client_keys) for c in range(3)))
    known, strangers = make_deployment(party_keys, client_directory), make_deployment(party_keys, {})
    assert all_txs_valid(batch, known) and not all_txs_valid(batch, strangers)
    assert all_txs_valid(batch, known)


# --- primary behavior ------------------------------------------------------------


def test_primary_batches_on_timer(client_directory, client_keys, party_keys):
    node = _node(0, client_directory, party_keys)
    ctx = StubCtx()
    node.start(ctx)
    for i in range(3):
        node.handle(msg.SubmitTx(make_tx(i % 4, bytes([i + 1]) * 4, client_keys), i), ctx)
    assert node.height == 0
    _pump(node, ctx, until=node.d.protocol.max_batch_latency_us)
    assert node.height == 1
    batch = node.ledger[0]
    assert batch.seq == 0 and batch.primary == 0 and len(batch.txs) == 3
    shares = _sent_of(ctx, BatchAttestationShare)
    assert [d for d, _ in shares] == [node.d.sequencer]  # once, straight to the total order
    bas = [m for _, m in shares]
    assert bas[0].key == batch.key()
    stored = _sent_of(ctx, Batch)
    assert stored == [(node.d.assembler[0], batch)] and stored[0][1] is batch


def test_primary_two_full_batches_disjoint(client_directory, client_keys, party_keys):
    node = _node(0, client_directory, party_keys, max_batch_size=3)
    ctx = StubCtx()
    node.start(ctx)
    for i in range(6):
        node.handle(msg.SubmitTx(make_tx(i % 4, bytes([i + 1]) * 5, client_keys), i), ctx)
    _pump(node, ctx, until=US)
    assert node.height == 2
    a, b = node.ledger
    assert (a.seq, b.seq) == (0, 1)
    assert not {t.tx_id for t in a.txs} & {t.tx_id for t in b.txs}
    assert len(a.txs) == len(b.txs) == 3


def test_primary_empty_pool_no_batch(client_directory, party_keys):
    node = _node(0, client_directory, party_keys)
    ctx = StubCtx()
    node.start(ctx)
    _pump(node, ctx, until=US)
    assert node.height == 0
    assert not _sent_of(ctx, (BatchAttestationShare, ComplaintVote))


def test_primary_answers_queued_pull_on_persist(client_directory, client_keys, party_keys):
    node = _node(0, client_directory, party_keys)
    ctx = StubCtx()
    node.start(ctx)
    node.handle(msg.PullRequest(0, requester_party=1), ctx)
    assert not _sent_of(ctx, msg.PullResponse)
    node.handle(msg.SubmitTx(make_tx(0, b"hello", client_keys), 0), ctx)
    _pump(node, ctx, until=node.d.protocol.max_batch_latency_us)
    responses = _sent_of(ctx, msg.PullResponse)
    assert len(responses) == 1
    dest, resp = responses[0]
    assert dest == node.d.batcher[1][0] and resp.batch.seq == 0


def _record_proposals(node) -> list[int]:
    """The virtual time of every batch ``node`` proposes from now on."""
    times = []
    persist = node._persist

    def record(batch, ctx):
        times.append(ctx.now())
        persist(batch, ctx)

    node._persist = record
    return times


def _submit(node, ctx, client_keys, at, count, first=0):
    ctx.time = at
    for i in range(first, first + count):
        node.handle(msg.SubmitTx(make_tx(i % 4, i.to_bytes(4, "big"), client_keys), i), ctx)


def _kick_times(ctx):
    return sorted(m.at for _, m in ctx.timers if isinstance(m, msg.ProposeKick))


def test_partial_batch_proposes_max_batch_latency_after_it_opened(client_directory, client_keys, party_keys):
    node = _node(0, client_directory, party_keys)
    ctx = StubCtx()
    node.start(ctx)
    proposed = _record_proposals(node)
    latency = node.d.protocol.max_batch_latency_us
    _submit(node, ctx, client_keys, at=7_000, count=2)
    _submit(node, ctx, client_keys, at=50_000, count=1, first=2)  # joins the open batch
    _pump(node, ctx, until=7_000 + latency - 1)
    assert proposed == []
    _pump(node, ctx, until=US)
    assert proposed == [7_000 + latency] and len(node.ledger[0].txs) == 3


def test_sealed_batch_proposes_at_once(client_directory, client_keys, party_keys):
    node = _node(0, client_directory, party_keys, max_batch_size=3)
    ctx = StubCtx()
    node.start(ctx)
    proposed = _record_proposals(node)
    _submit(node, ctx, client_keys, at=7_000, count=3)
    _pump(node, ctx, until=7_000)
    assert proposed == [7_000] and len(node.ledger[0].txs) == 3


@pytest.mark.parametrize(
    "interval, expected",
    [
        # Three sealed batches one interval apart, then the partial on its timeout.
        (5_000, [1_000, 6_000, 11_000, 101_000]),
        # The interval outlasts the partial batch's timeout and holds it back.
        (150_000, [1_000, 151_000, 301_000, 451_000]),
    ],
)
def test_no_proposal_within_min_propose_interval(client_directory, client_keys, party_keys, interval, expected):
    node = _node(0, client_directory, party_keys, max_batch_size=2, min_propose_interval_us=interval)
    ctx = StubCtx()
    node.start(ctx)
    proposed = _record_proposals(node)
    _submit(node, ctx, client_keys, at=1_000, count=7)
    _pump(node, ctx, until=US)
    assert proposed == expected
    assert [len(b.txs) for b in node.ledger] == [2, 2, 2, 1]


def test_superseded_kick_proposes_nothing(client_directory, client_keys, party_keys):
    node = _node(0, client_directory, party_keys, max_batch_size=2)
    ctx = StubCtx()
    node.start(ctx)
    proposed = _record_proposals(node)
    _submit(node, ctx, client_keys, at=0, count=1)
    assert _kick_times(ctx) == [100_000]  # the partial batch's timeout
    _submit(node, ctx, client_keys, at=1_000, count=1, first=1)  # seals it: an earlier kick
    _pump(node, ctx, until=1_000)
    assert proposed == [1_000]
    _submit(node, ctx, client_keys, at=2_000, count=1, first=2)  # a new partial batch
    assert _kick_times(ctx) == [100_000, 102_000]
    _pump(node, ctx, until=100_000)  # delivers the superseded kick
    assert proposed == [1_000] and _kick_times(ctx) == [102_000]
    _pump(node, ctx, until=US)
    assert proposed == [1_000, 102_000]


def test_kick_from_an_earlier_term_does_not_propose_early(client_directory, client_keys, party_keys):
    # Party 0 of 4 leads terms 0 and 4. Its term-0 kick is still live when it
    # leads again with the batch reopened, so the kick must check the rule.
    node = _node(0, client_directory, party_keys)
    ctx = StubCtx()
    node.start(ctx)
    proposed = _record_proposals(node)
    _submit(node, ctx, client_keys, at=0, count=1)
    ctx.time = 10_000
    node.handle(msg.OrderedUpdate((), new_term=1), ctx)
    ctx.time = 50_000
    node.handle(msg.OrderedUpdate((), new_term=4), ctx)
    assert node.is_primary and _kick_times(ctx) == [100_000]
    _pump(node, ctx, until=US)
    assert proposed == [150_000]


# --- secondary behavior ----------------------------------------------------------


def _secondary_with_batch(client_directory, client_keys, party_keys, txs, primary=0, party=1):
    node = _node(party, client_directory, party_keys)
    ctx = StubCtx()
    node.start(ctx)
    pulls = _sent_of(ctx, msg.PullRequest)
    assert pulls and pulls[0][0] == node.d.batcher[primary][0]
    ctx.take_sent()
    batch = Batch(0, 0, 0, primary, tuple(txs))
    node.handle(msg.PullResponse(batch, primary), ctx)
    return node, ctx, batch


def test_secondary_persists_and_attests(client_directory, client_keys, party_keys):
    txs = [make_tx(i % 4, bytes([i + 1]) * 6, client_keys) for i in range(4)]
    node, ctx, batch = _secondary_with_batch(client_directory, client_keys, party_keys, txs)
    assert node.height == 1
    bas = [m for _, m in _sent_of(ctx, (BatchAttestationShare, ComplaintVote))]
    assert all(isinstance(e, BatchAttestationShare) for e in bas)
    # Matches the proposer's key field-for-field.
    assert bas[0].key == batch.key()
    assert bas[0].signer == 1 and bas[0].key.primary == 0
    # Pulls the next height.
    next_pulls = _sent_of(ctx, msg.PullRequest)
    assert next_pulls and next_pulls[0][1].seq == 1


def test_secondary_removes_pooled_txs_on_persist(client_directory, client_keys, party_keys):
    node = _node(1, client_directory, party_keys)
    ctx = StubCtx()
    node.start(ctx)
    txs = [make_tx(i % 4, bytes([i + 7]) * 6, client_keys) for i in range(4)]
    for i, tx in enumerate(txs):
        node.handle(msg.SubmitTx(tx, i), ctx)
    assert len(node.pool.tx_index) == 4
    node.handle(msg.PullResponse(Batch(0, 0, 0, 0, tuple(txs)), 0), ctx)
    assert len(node.pool.tx_index) == 0


def test_secondary_complains_on_bogus_batch(client_directory, client_keys, party_keys):
    good = [make_tx(i % 4, bytes([i + 1]) * 6, client_keys) for i in range(15)]
    bad = [Transaction(70 + i, b"zz", Signature("test_mac", b"\x00" * 32)) for i in range(15)]
    node, ctx, _ = _secondary_with_batch(client_directory, client_keys, party_keys, good + bad)
    assert node.height == 0 and node.halted
    votes = [m for _, m in _sent_of(ctx, (BatchAttestationShare, ComplaintVote))]
    assert votes and all(isinstance(v, ComplaintVote) for v in votes)
    assert votes[0].term == 0 and votes[0].signer == 1
    # Halted until a term change: further responses are ignored.
    node.handle(msg.PullResponse(Batch(0, 0, 0, 0, tuple(good)), 0), ctx)
    assert node.height == 0


@pytest.mark.parametrize("term, primary", [(1, 0), (0, 2)])
def test_secondary_complains_on_a_mislabelled_batch_until_the_term_changes(
    client_directory, client_keys, party_keys, term, primary
):
    # The term-0 primary, party 0, serves a batch labelled with a later term
    # or with another primary: misbehaviour, so the secondary complains once
    # and halts until the next term.
    txs = [make_tx(i % 4, bytes([i + 1]) * 6, client_keys) for i in range(4)]
    node = _node(1, client_directory, party_keys)
    ctx = StubCtx()
    node.start(ctx)
    ctx.take_sent()
    node.handle(msg.PullResponse(Batch(0, 0, term, primary, tuple(txs)), 0), ctx)
    (dest, vote), = ctx.take_sent()
    assert dest == node.d.sequencer and isinstance(vote, ComplaintVote) and vote.term == 0
    assert node.halted
    node.handle(msg.PullResponse(Batch(0, 0, 0, 0, tuple(txs)), 0), ctx)  # a good one, ignored
    assert node.ledger == [] and ctx.sent == []
    node.handle(msg.OrderedUpdate((), new_term=2), ctx)
    assert not node.halted
    assert [(d, m.seq) for d, m in _sent_of(ctx, msg.PullRequest)] == [(node.d.batcher[2][0], 0)]


def test_secondary_ignores_stale_or_foreign_responses(client_directory, client_keys, party_keys):
    txs = [make_tx(0, b"only", client_keys)]
    node = _node(1, client_directory, party_keys)
    ctx = StubCtx()
    node.start(ctx)
    ctx.take_sent()
    node.handle(msg.PullResponse(Batch(0, 0, 0, 2, tuple(txs)), 2), ctx)  # not the primary
    assert node.height == 0
    node.handle(msg.PullResponse(Batch(0, 5, 0, 0, tuple(txs)), 0), ctx)  # wrong seq
    assert node.height == 0


def test_secondary_accepts_historical_batch_from_current_primary(
    client_directory, client_keys, party_keys
):
    # After a failover the new primary serves its ledger, which includes
    # batches minted under older terms; a catching-up secondary takes them.
    node = _node(3, client_directory, party_keys)
    ctx = StubCtx()
    node.start(ctx)
    node.handle(msg.OrderedUpdate((), new_term=1), ctx)
    assert not node.is_primary
    txs = [make_tx(0, b"old batch", client_keys)]
    old = Batch(0, 0, 0, 0, tuple(txs))  # term 0, proposed by party 0
    node.handle(msg.PullResponse(old, 1), ctx)  # served by party 1, the term-1 primary
    assert node.height == 1


def test_censorship_forward_once_then_complain(client_directory, client_keys, party_keys):
    node = _node(1, client_directory, party_keys)
    ctx = StubCtx()
    node.start(ctx)
    tx = make_tx(0, b"will be stuck", client_keys)
    node.handle(msg.SubmitTx(tx, 0), ctx)
    ctx.take_sent()
    _pump(node, ctx, until=node.d.protocol.bucket_period_us + node.d.protocol.t_forward_us)
    fwd = [(d, m) for d, m in ctx.sent if isinstance(m, msg.SubmitTx)]
    assert len(fwd) == 1
    assert fwd[0][0] == node.d.router[0]  # the primary party's router
    assert fwd[0][1].submission_id is None
    ctx.take_sent()
    _pump(node, ctx, until=ctx.time + node.d.protocol.t_complain_us + node.d.protocol.bucket_period_us)
    votes = _sent_of(ctx, (BatchAttestationShare, ComplaintVote))
    assert [d for d, _ in votes] == [node.d.sequencer] and isinstance(votes[0][1], ComplaintVote)
    # One complaint per term, and the tx is forwarded only once.
    ctx.take_sent()
    _pump(node, ctx, until=ctx.time + US)
    assert not _sent_of(ctx, (BatchAttestationShare, ComplaintVote))
    assert not [m for _, m in ctx.sent if isinstance(m, msg.SubmitTx)]


# --- term changes -------------------------------------------------------------------


def test_term_change_reproposes_unordered_batches(client_directory, client_keys, party_keys):
    txs = [make_tx(i % 4, bytes([i + 1]) * 6, client_keys) for i in range(4)]
    node, ctx, batch = _secondary_with_batch(client_directory, client_keys, party_keys, txs)
    ctx.take_sent()
    # Term 1 makes party 1 the primary; the persisted batch never reached the
    # attestation threshold, so its txs are re-proposed at the pool front.
    node.handle(msg.OrderedUpdate((), new_term=1), ctx)
    assert node.is_primary
    assert {t.tx_id for t in txs} <= set(node.pool.tx_index)
    assert node.reproposed_tx_ids
    _pump(node, ctx, until=ctx.time + US)
    assert node.height == 2
    redo = node.ledger[1]
    assert redo.term == 1 and redo.primary == 1
    assert [t.tx_id for t in redo.txs] == [t.tx_id for t in txs]


def test_term_change_skips_thresholded_batches(client_directory, client_keys, party_keys):
    txs = [make_tx(i % 4, bytes([i + 1]) * 6, client_keys) for i in range(4)]
    node, ctx, batch = _secondary_with_batch(client_directory, client_keys, party_keys, txs)
    ctx.take_sent()
    node.handle(msg.OrderedUpdate((batch.key(),), new_term=1), ctx)
    assert node.is_primary
    assert not node.reproposed_tx_ids
    _pump(node, ctx, until=ctx.time + US)
    assert node.height == 1  # nothing to re-propose


def test_term_change_back_to_secondary(client_directory, client_keys, party_keys):
    node = _node(0, client_directory, party_keys)
    ctx = StubCtx()
    node.start(ctx)
    tx = make_tx(0, b"pooled", client_keys)
    node.handle(msg.SubmitTx(tx, 0), ctx)
    ctx.take_sent()
    node.handle(msg.OrderedUpdate((), new_term=1), ctx)
    assert not node.is_primary
    assert tx.tx_id in node.pool.tx_index
    pulls = _sent_of(ctx, msg.PullRequest)
    assert pulls and pulls[0][0] == node.d.batcher[1][0]


def test_one_pool_across_term_changes(client_directory, client_keys, party_keys):
    # Party 1 of 4 is the primary of terms 1, 5, 9, ... Its ledger holds one
    # batch that never reached the threshold, so each term it leads re-queues
    # those persisted txs; a tx it only pooled must survive every change.
    txs = [make_tx(i % 4, bytes([i + 1]) * 6, client_keys) for i in range(2)]
    node, ctx, _batch = _secondary_with_batch(client_directory, client_keys, party_keys, txs)
    persisted = {tx.tx_id for tx in txs}
    pooled = make_tx(2, b"pooled", client_keys)
    node.handle(msg.SubmitTx(pooled, 0), ctx)
    pool = node.pool
    # secondary -> primary -> secondary, a 2-term jump without and with a
    # role flip, and a 4-term jump that keeps the same primary: the pool is
    # never rebuilt, whatever the role.
    for term, primary in ((1, True), (2, False), (4, False), (5, True), (9, True), (11, False)):
        node.handle(msg.OrderedUpdate((), new_term=term), ctx)
        assert node.term == term and node.is_primary == primary
        assert node.primary == term % 4 and (node.primary == node.party) == primary
        assert node.pool is pool
        assert pooled.tx_id in pool.tx_index
        if primary:
            assert persisted <= set(pool.tx_index)
        else:
            assert not persisted & set(pool.tx_index)
