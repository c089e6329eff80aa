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

from helpers import StubCtx, make_deployment, make_tx


def _pubs(party_keys, n=4):
    return {p: party_keys[p].public for p in range(n)}


def _signed_header(party_keys, batches, block_seq=0, prev=ZERO_DIGEST, signers=(0, 1, 2)):
    header = BlockHeader(block_seq, prev, tuple(b.key() for b in batches))
    payload = encode_header_payload(header)
    sigs = tuple((p, sign(party_keys[p], payload)) for p in signers)
    return header, sigs


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
    assert verify_header(header, sigs, _pubs(party_keys), ZERO_DIGEST, 0, 4, 1) is None


def test_verify_header_insufficient_quorum(party_keys, client_keys):
    batch = _batch(client_keys)
    header, sigs = _signed_header(party_keys, [batch], signers=(0, 1))
    reason = verify_header(header, sigs, _pubs(party_keys), ZERO_DIGEST, 0, 4, 1)
    assert reason == REJECT_INSUFFICIENT_QUORUM


def test_verify_header_bad_signature(party_keys, client_keys):
    batch = _batch(client_keys)
    header, sigs = _signed_header(party_keys, [batch])
    tampered = (sigs[0], sigs[1], (sigs[2][0], Signature("test_mac", b"\x00" * 32)))
    reason = verify_header(header, tampered, _pubs(party_keys), ZERO_DIGEST, 0, 4, 1)
    assert reason == REJECT_BAD_SIGNATURE


def test_verify_header_duplicate_signers_not_a_quorum(party_keys, client_keys):
    batch = _batch(client_keys)
    header, _ = _signed_header(party_keys, [batch])
    payload = encode_header_payload(header)
    sig0 = sign(party_keys[0], payload)
    sigs = ((0, sig0), (0, sig0), (0, sig0))
    reason = verify_header(header, sigs, _pubs(party_keys), ZERO_DIGEST, 0, 4, 1)
    assert reason == REJECT_INSUFFICIENT_QUORUM


def test_verify_header_chain_break_and_bad_seq(party_keys, client_keys):
    batch = _batch(client_keys)
    header, sigs = _signed_header(party_keys, [batch], prev=b"\x11" * 32)
    assert verify_header(header, sigs, _pubs(party_keys), ZERO_DIGEST, 0, 4, 1) == REJECT_CHAIN_BREAK
    header2, sigs2 = _signed_header(party_keys, [batch], block_seq=5)
    assert verify_header(header2, sigs2, _pubs(party_keys), ZERO_DIGEST, 0, 4, 1) == REJECT_BAD_SEQ


# --- assembly flow ---------------------------------------------------------------


def test_batch_then_header_appends(party_keys, client_keys):
    node = _node(party_keys)
    ctx = StubCtx()
    batch = _batch(client_keys)
    node.handle(msg.BatchStored(batch), ctx)
    header, sigs = _signed_header(party_keys, [batch])
    node.handle(msg.PublishedHeader(header, sigs), ctx)
    assert len(node.ledger) == 1
    assert node.ledger[0].batches == (batch,)
    assert node.inclusion_times.keys() == {tx.tx_id for tx in batch.txs}


def test_duplicate_batch_single_index_entry(party_keys, client_keys):
    node = _node(party_keys)
    ctx = StubCtx()
    batch = _batch(client_keys)
    node.handle(msg.BatchStored(batch), ctx)
    node.handle(msg.BatchStored(batch), ctx)
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
    node.handle(msg.BatchStored(batch), ctx)
    assert len(node.ledger) == 1


def test_out_of_order_headers_buffered(party_keys, client_keys):
    node = _node(party_keys)
    ctx = StubCtx()
    b0 = _batch(client_keys, tag=b"a")
    b1 = _batch(client_keys, seq=1, tag=b"b")
    h0, s0 = _signed_header(party_keys, [b0])
    h1, s1 = _signed_header(party_keys, [b1], block_seq=1, prev=header_digest(h0))
    node.handle(msg.BatchStored(b0), ctx)
    node.handle(msg.BatchStored(b1), ctx)
    node.handle(msg.PublishedHeader(h1, s1), ctx)
    assert len(node.ledger) == 0
    node.handle(msg.PublishedHeader(h0, s0), ctx)
    assert len(node.ledger) == 2
    assert [b.header.block_seq for b in node.ledger] == [0, 1]


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
    node.handle(msg.AssemblerPullResponse(0, 0, None, 0), ctx)
    (d1, _), = [(d, m) for d, m in ctx.take_sent() if isinstance(m, msg.AssemblerPull)]
    assert d1 == node.d.batcher[1][0]
    # The next party serves a diverged batch: digest mismatch, move on.
    node.handle(msg.AssemblerPullResponse(0, 0, wrong, 1), ctx)
    (d2, _), = [(d, m) for d, m in ctx.take_sent() if isinstance(m, msg.AssemblerPull)]
    assert d2 == node.d.batcher[2][0]
    node.handle(msg.AssemblerPullResponse(0, 0, wanted, 2), ctx)
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
