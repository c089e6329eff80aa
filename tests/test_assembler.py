import pytest

from shardbft import assembler
from shardbft import messages as msg
from shardbft.assembler import (
    AssemblerNode,
    REJECT_BAD_SEQ,
    REJECT_BAD_SIGNATURE,
    REJECT_CHAIN_BREAK,
    REJECT_CONTENT_MISMATCH,
    REJECT_INSUFFICIENT_QUORUM,
    read_ledger,
    verify_header,
    verify_ledger_blocks,
    write_ledger,
)
from shardbft.core import (
    Batch,
    Block,
    BlockHeader,
    ZERO_DIGEST,
    encode_header_payload,
    header_digest,
)
from shardbft.crypto import Signature, sign
from shardbft.sim.scenario import ScenarioConfig

from families import load
from helpers import StubCtx, assembler_prefix_check, make_deployment, make_tx, run_checked


def _pubs(party_keys, n=4):
    return {p: party_keys[p].public for p in range(n)}


def _signed_header(party_keys, batches, block_seq=0, prev=ZERO_DIGEST, signers=(0, 1, 2)):
    return _signed(party_keys, BlockHeader(block_seq, prev, tuple(b.key() for b in batches)), signers)


def _signed(party_keys, header, signers=(0, 1, 2)):
    payload = encode_header_payload(header)
    return header, tuple((p, sign(party_keys[p], payload)) for p in signers)


def _batch(client_keys, n_txs=3, shard=0, seq=0, term=0, primary=0, tag=b""):
    txs = [make_tx(i % 4, tag + bytes([i + 1]) * 4, client_keys) for i in range(n_txs)]
    return Batch(shard, seq, term, primary, tuple(txs))


def _node(party_keys, party=0, n=4, f=1, shards=1):
    d = make_deployment(party_keys, n=n, f=f, shards=shards, fetch_timeout_us=250_000)
    return AssemblerNode(d, party)


# --- header verification -----------------------------------------------------


def test_verify_header_quorum_ok(party_keys, client_keys):
    batch = _batch(client_keys)
    header, sigs = _signed_header(party_keys, [batch])
    assert verify_header(header, sigs, _pubs(party_keys), 4, 1) is None


def test_verify_header_insufficient_quorum(party_keys, client_keys):
    batch = _batch(client_keys)
    header, sigs = _signed_header(party_keys, [batch], signers=(0, 1))
    reason = verify_header(header, sigs, _pubs(party_keys), 4, 1)
    assert reason == REJECT_INSUFFICIENT_QUORUM


def test_verify_header_bad_signature(party_keys, client_keys):
    batch = _batch(client_keys)
    header, sigs = _signed_header(party_keys, [batch])
    tampered = (sigs[0], sigs[1], (sigs[2][0], Signature("test_mac", b"\x00" * 32)))
    reason = verify_header(header, tampered, _pubs(party_keys), 4, 1)
    assert reason == REJECT_BAD_SIGNATURE


def test_verify_header_duplicate_signers_not_a_quorum(party_keys, client_keys):
    batch = _batch(client_keys)
    header, _ = _signed_header(party_keys, [batch])
    payload = encode_header_payload(header)
    sig0 = sign(party_keys[0], payload)
    sigs = ((0, sig0), (0, sig0), (0, sig0))
    reason = verify_header(header, sigs, _pubs(party_keys), 4, 1)
    assert reason == REJECT_INSUFFICIENT_QUORUM


# --- assembly flow ---------------------------------------------------------------


def test_batch_then_header_appends(party_keys, client_keys):
    node = _node(party_keys)
    ctx = StubCtx(now_us=1_234)
    batch = _batch(client_keys)
    node.handle(batch, ctx)
    header, sigs = _signed_header(party_keys, [batch])
    node.handle(msg.PublishedHeader(header, sigs), ctx)
    assert len(node.ledger) == 1
    assert node.ledger[0].batches == (batch,)
    # The block's txs, and no others, are committed at the append: its
    # throughput entry is its append time and the running tx count.
    assert node.throughput_series == [(1_234, len(batch.txs))]
    assert node.committed_txs == len(batch.txs) > 0


def test_the_assembler_prefix_check_names_a_block_that_differs(party_keys, client_keys):
    # p0 and p1 append the same block 0, and p2 another one.
    check, broken = assembler_prefix_check(ScenarioConfig(n_parties=4, f=1))
    same, other = _batch(client_keys, tag=b"same"), _batch(client_keys, tag=b"other")
    for party, batch, now in ((0, same, 0), (1, same, 10), (2, other, 250_000)):
        node, ctx = _node(party_keys, party=party), StubCtx(now)
        node.handle(batch, ctx)
        check(node, batch)  # indexed, not appended: nothing to compare
        header, sigs = _signed_header(party_keys, [batch])
        message = msg.PublishedHeader(header, sigs)
        node.handle(message, ctx)
        check(node, message)
        check(node, message)  # a delivery that grows nothing adds nothing
    assert broken == ["t=0.250000 s: p2 appends block 0 on a PublishedHeader, not p0's block 0"]


def test_duplicate_batch_single_index_entry(party_keys, client_keys):
    node = _node(party_keys)
    ctx = StubCtx()
    batch = _batch(client_keys)
    node.handle(batch, ctx)
    node.handle(batch, ctx)
    assert len(node.index) == 1


def test_header_before_batch_waits_then_appends(party_keys, client_keys):
    node = _node(party_keys)
    ctx = StubCtx()
    batch = _batch(client_keys)
    header, sigs = _signed_header(party_keys, [batch])
    node.handle(msg.PublishedHeader(header, sigs), ctx)
    assert len(node.ledger) == 0
    # It starts fetching from its own party's batcher.
    pulls = [(d, m) for d, m in ctx.sent if isinstance(m, msg.AssemblerPull)]
    assert pulls and pulls[0][0] == node.d.batcher[0][0]
    node.handle(batch, ctx)
    assert len(node.ledger) == 1


def test_out_of_order_headers_buffered(party_keys, client_keys):
    node = _node(party_keys)
    ctx = StubCtx()
    b0 = _batch(client_keys, tag=b"a")
    b1 = _batch(client_keys, seq=1, tag=b"b")
    h0, s0 = _signed_header(party_keys, [b0])
    h1, s1 = _signed_header(party_keys, [b1], block_seq=1, prev=header_digest(h0))
    node.handle(b0, ctx)
    node.handle(b1, ctx)
    node.handle(msg.PublishedHeader(h1, s1), ctx)
    assert len(node.ledger) == 0
    node.handle(msg.PublishedHeader(h0, s0), ctx)
    assert len(node.ledger) == 2
    assert [b.header.block_seq for b in node.ledger] == [0, 1]


def test_append_drops_every_variant_of_its_slots(party_keys, client_keys):
    # The own batcher persisted variant V of the slot; the header names the
    # other digest. The block takes the slot, and V leaves with it.
    node = _node(party_keys)
    ctx = StubCtx()
    variant = _batch(client_keys, tag=b"v")
    wanted = _batch(client_keys, tag=b"w")
    node.handle(variant, ctx)
    header, sigs = _signed_header(party_keys, [wanted])
    node.handle(msg.PublishedHeader(header, sigs), ctx)
    assert len(node.ledger) == 0
    node.handle(msg.AssemblerPullResponse(0, 0, wanted), ctx)
    assert node.ledger[0].batches == (wanted,)
    assert node.index == {}


def test_a_rejected_header_appends_nothing_until_a_valid_one_arrives(party_keys, client_keys):
    # A header at the ledger's height with too few valid signatures, or one
    # that breaks the chain, is dropped with its reason and fetches nothing;
    # a valid header for the same seq, arriving later, appends.
    node = _node(party_keys)
    ctx = StubCtx()
    batch = _batch(client_keys)
    node.handle(batch, ctx)
    header, sigs = _signed_header(party_keys, [batch])
    forged = (*sigs[:2], (sigs[2][0], Signature("test_mac", b"\x00" * 32)))
    node.handle(msg.PublishedHeader(header, forged), ctx)
    node.handle(msg.PublishedHeader(*_signed_header(party_keys, [batch], prev=b"\x11" * 32)), ctx)
    assert node.rejects == [(0, REJECT_BAD_SIGNATURE), (0, REJECT_CHAIN_BREAK)]
    assert node.ledger == [] and node.header_buffer == {} and ctx.sent == []
    node.handle(msg.PublishedHeader(header, sigs), ctx)
    assert [block.header for block in node.ledger] == [header] and node.ledger[0].batches == (batch,)
    assert len(node.rejects) == 2


def test_a_header_without_a_quorum_above_the_height_leaves_its_seq_free(party_keys, client_keys):
    # Judged on arrival, the seq-1 header with one signature is never
    # buffered, so the valid one that follows takes seq 1 and the ledger
    # moves past it.
    node = _node(party_keys)
    ctx = StubCtx()
    b0 = _batch(client_keys, tag=b"a")
    b1 = _batch(client_keys, seq=1, tag=b"b")
    node.handle(b0, ctx)
    node.handle(b1, ctx)
    h0, s0 = _signed_header(party_keys, [b0])
    h1, s1 = _signed_header(party_keys, [b1], block_seq=1, prev=header_digest(h0))
    node.handle(msg.PublishedHeader(h1, s1[:1]), ctx)
    node.handle(msg.PublishedHeader(h1, s1), ctx)
    node.handle(msg.PublishedHeader(h0, s0), ctx)
    assert [block.header for block in node.ledger] == [h0, h1]
    assert node.rejects == [(1, REJECT_INSUFFICIENT_QUORUM)]


def test_a_header_for_an_appended_or_buffered_seq_is_ignored(monkeypatch, party_keys, client_keys):
    calls = []
    # Records each header it judges and passes it (None is no rejection).
    monkeypatch.setattr(assembler, "verify_header", lambda header, *_: calls.append(header))
    node = _node(party_keys)
    ctx = StubCtx()
    b0 = _batch(client_keys, tag=b"a")
    h0, s0 = _signed_header(party_keys, [b0])
    h1, s1 = _signed_header(party_keys, [_batch(client_keys, seq=1, tag=b"b")], block_seq=1, prev=header_digest(h0))
    node.handle(b0, ctx)
    node.handle(msg.PublishedHeader(h0, s0), ctx)
    node.handle(msg.PublishedHeader(h1, s1), ctx)  # waits for its batch
    assert calls == [h0, h1] and len(node.ledger) == 1 and 1 in node.header_buffer
    # Repeats for the appended seq 0 and the buffered seq 1 are not judged.
    node.handle(msg.PublishedHeader(h0, ()), ctx)
    node.handle(msg.PublishedHeader(h1, ()), ctx)
    assert calls == [h0, h1] and node.rejects == []
    assert node.header_buffer[1] == (h1, s1)


@pytest.mark.parametrize("name", ["withhold_short", "ordering_short"])
def test_each_header_is_verified_once_on_arrival(monkeypatch, name):
    # Only a PublishedHeader runs the quorum check, once; the batches and
    # fetches that let the header at the height append run none.
    verify = assembler.verify_header
    calls = []
    headers = seen = 0

    def counted(*args):
        calls.append(args[0])
        return verify(*args)

    def check(node, message):
        nonlocal headers, seen
        if isinstance(node, AssemblerNode):
            is_header = isinstance(message, msg.PublishedHeader)
            headers += is_header
            assert len(calls) - seen == is_header, message
        seen = len(calls)

    monkeypatch.setattr(assembler, "verify_header", counted)
    run_checked(load(f"pinned/{name}"), check)
    assert headers and len(calls) == headers


def test_fetch_falls_back_to_other_parties(party_keys, client_keys):
    node = _node(party_keys)
    ctx = StubCtx()
    wanted = _batch(client_keys, tag=b"wanted")
    wrong = _batch(client_keys, tag=b"wrong")
    header, sigs = _signed_header(party_keys, [wanted])
    node.handle(msg.PublishedHeader(header, sigs), ctx)
    (d0, pull0), = [(d, m) for d, m in ctx.take_sent() if isinstance(m, msg.AssemblerPull)]
    assert d0 == node.d.batcher[0][0]
    # Own batcher has nothing at that position.
    node.handle(msg.AssemblerPullResponse(0, 0, None), ctx)
    (d1, _), = [(d, m) for d, m in ctx.take_sent() if isinstance(m, msg.AssemblerPull)]
    assert d1 == node.d.batcher[1][0]
    # The next party serves a diverged batch: digest mismatch, move on.
    node.handle(msg.AssemblerPullResponse(0, 0, wrong), ctx)
    (d2, _), = [(d, m) for d, m in ctx.take_sent() if isinstance(m, msg.AssemblerPull)]
    assert d2 == node.d.batcher[2][0]
    node.handle(msg.AssemblerPullResponse(0, 0, wanted), ctx)
    assert len(node.ledger) == 1
    assert node.ledger[0].batches[0].digest() == wanted.digest()


def test_fetch_retry_timeout_advances_party(party_keys, client_keys):
    node = _node(party_keys)
    ctx = StubCtx()
    wanted = _batch(client_keys)
    header, sigs = _signed_header(party_keys, [wanted])
    node.handle(msg.PublishedHeader(header, sigs), ctx)
    ctx.take_sent()
    retries = [m for _, m in ctx.timers if isinstance(m, msg.FetchRetry)]
    assert retries
    ctx.time += node.d.protocol.fetch_timeout_us
    node.handle(retries[0], ctx)  # no response at all: try the next party
    (d1, _), = [(d, m) for d, m in ctx.sent if isinstance(m, msg.AssemblerPull)]
    assert d1 == node.d.batcher[1][0]


@pytest.mark.parametrize("name", ["withhold_short", "ordering_short"])
def test_no_key_being_fetched_is_held(monkeypatch, name):
    # A fetch is live exactly while its key is in `fetching`, so no key
    # there is ever already indexed: checked after every assembler message
    # of two pinned scenarios whose withheld and equivocated batches are
    # fetched, some of them past the first party asked.
    fetch = AssemblerNode._fetch
    attempts = []

    def check(node, _message):
        if isinstance(node, AssemblerNode):
            assert not [key for key in node.fetching if node._held(key)]

    def counted(node, key, attempt, ctx):
        attempts.append(attempt)
        fetch(node, key, attempt, ctx)

    monkeypatch.setattr(AssemblerNode, "_fetch", counted)
    run_checked(load(f"pinned/{name}"), check)
    assert 0 in attempts and max(attempts) > 0


# --- ledger files ------------------------------------------------------------------


def _ledger_blocks(party_keys, client_keys, count=3):
    blocks = []
    prev = ZERO_DIGEST
    for i in range(count):
        batch = _batch(client_keys, seq=i, tag=bytes([i]))
        header, sigs = _signed_header(party_keys, [batch], block_seq=i, prev=prev)
        blocks.append(Block(header, sigs, (batch,)))
        prev = header_digest(header)
    return blocks


def test_ledger_file_round_trip(tmp_path, party_keys, client_keys, scheme):
    blocks = _ledger_blocks(party_keys, client_keys)
    path = tmp_path / "ledger.bin"
    write_ledger(path, blocks)
    loaded = read_ledger(path, scheme)
    assert loaded == blocks
    ok, seq, reason = verify_ledger_blocks(loaded, _pubs(party_keys), 4, 1)
    assert ok and seq is None and reason is None


def test_ledger_verification_catches_batch_tamper(tmp_path, party_keys, client_keys, scheme):
    blocks = _ledger_blocks(party_keys, client_keys)
    tampered = blocks[1]
    txs = list(tampered.batches[0].txs)
    payload = bytearray(txs[0].payload)
    payload[0] ^= 0x01
    from shardbft.core import Transaction

    txs[0] = Transaction(txs[0].client_id, bytes(payload), txs[0].signature)
    bad_batch = Batch(0, 1, 0, 0, tuple(txs))
    blocks[1] = Block(tampered.header, tampered.quorum_sigs, (bad_batch,))
    ok, seq, reason = verify_ledger_blocks(blocks, _pubs(party_keys), 4, 1)
    assert not ok and seq == 1 and reason == REJECT_CONTENT_MISMATCH


def test_ledger_verification_catches_quorum_truncation(party_keys, client_keys):
    blocks = _ledger_blocks(party_keys, client_keys)
    blocks[2] = Block(blocks[2].header, blocks[2].quorum_sigs[:2], blocks[2].batches)
    ok, seq, reason = verify_ledger_blocks(blocks, _pubs(party_keys), 4, 1)
    assert not ok and seq == 2 and reason == REJECT_INSUFFICIENT_QUORUM


def test_ledger_verification_catches_chain_break_and_bad_seq(party_keys, client_keys):
    blocks = _ledger_blocks(party_keys, client_keys)
    batches = blocks[1].batches
    prev = blocks[0].header.header_hash
    extra = _batch(client_keys, seq=3, tag=b"x")
    # The batch's own digest, signed under another seq, shard or primary.
    key = batches[0].key()
    moved, other_shard, other_primary = (
        BlockHeader(1, prev, (key._replace(**field),)) for field in ({"seq": 9}, {"shard": 1}, {"primary": 1})
    )
    for header, sigs, reason in (
        (*_signed_header(party_keys, batches, block_seq=1, prev=b"\x11" * 32), REJECT_CHAIN_BREAK),
        (*_signed_header(party_keys, batches, block_seq=5, prev=prev), REJECT_BAD_SEQ),
        # A quorum-signed header whose keys the block's batches do not match:
        # one batch fewer than keys, and a key with the right digest.
        (*_signed_header(party_keys, [*batches, extra], block_seq=1, prev=prev), REJECT_CONTENT_MISMATCH),
        (*_signed(party_keys, moved), REJECT_CONTENT_MISMATCH),
        (*_signed(party_keys, other_shard), REJECT_CONTENT_MISMATCH),
        (*_signed(party_keys, other_primary), REJECT_CONTENT_MISMATCH),
    ):
        forged = [*blocks[:1], Block(header, sigs, batches), *blocks[2:]]
        assert verify_ledger_blocks(forged, _pubs(party_keys), 4, 1) == (False, 1, reason)
