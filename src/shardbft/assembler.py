"""Block assembly: join quorum-signed headers with fetched batches.

The assembler indexes every batch it sees by digest (own party's batchers
push their persisted batches; anything still missing when a header arrives
is pulled from other parties' batchers round-robin until the digest
matches). Headers are consumed strictly in block-sequence order, verified
against the consensus quorum, and appended to an append-only block ledger.
The ledger serializes to length-prefixed canonical block encodings so it can
be re-verified offline with nothing but the consensus public keys.
"""

from __future__ import annotations

from . import messages as msg
from .core import (
    Batch,
    BatchKey,
    Block,
    BlockHeader,
    ZERO_DIGEST,
    decode_block,
    encode_block,
    quorum_size,
    read_u64,
    u64,
)
from .crypto import verify

REJECT_INSUFFICIENT_QUORUM = "insufficient_quorum"
REJECT_BAD_SIGNATURE = "bad_signature"
REJECT_CHAIN_BREAK = "chain_break"
REJECT_BAD_SEQ = "bad_seq"
REJECT_CONTENT_MISMATCH = "content_mismatch"

LEDGER_MAGIC = b"SBL1"


def verify_header(
    header: BlockHeader,
    sigs,
    party_keys,
    prev_hash: bytes,
    expected_seq: int,
    n_parties: int,
    f: int,
) -> str | None:
    """None when the header is acceptable, otherwise the rejection reason."""
    if header.block_seq != expected_seq:
        return REJECT_BAD_SEQ
    if header.prev_header_hash != prev_hash:
        return REJECT_CHAIN_BREAK
    quorum = quorum_size(n_parties, f)
    if len({signer for signer, _ in sigs}) < quorum:
        return REJECT_INSUFFICIENT_QUORUM
    payload = header.signing_payload
    valid = set()
    for signer, sig in sigs:
        public = party_keys.get(signer)
        if public is not None and verify(public, payload, sig):
            valid.add(signer)
    if len(valid) < quorum:
        return REJECT_BAD_SIGNATURE
    return None


class AssemblerNode:
    """The assembler of party ``party`` in the deployment ``d``."""

    def __init__(self, d, party: int):
        self.d = d
        self.party = party
        self.node_id = d.assembler[party]
        self.index: dict[bytes, Batch] = {}
        self.ledger: list[Block] = []
        self.header_buffer: dict[int, tuple[BlockHeader, tuple]] = {}
        self.next_seq = 0
        self.prev_hash = ZERO_DIGEST
        self.waiting: tuple[BlockHeader, tuple] | None = None
        self.fetching: dict[BatchKey, int] = {}
        self.rejects: list[tuple[int, str]] = []
        # Commit bookkeeping for reports.
        self.inclusion_times: dict[bytes, int] = {}
        self.committed_txs = 0
        self.throughput_series: list[tuple[int, int]] = []

    def handle(self, message, ctx) -> None:
        if isinstance(message, msg.BatchStored):
            self._index_batch(message.batch)
            self._advance(ctx)
        elif isinstance(message, msg.PublishedHeader):
            self._on_header(message, ctx)
        elif isinstance(message, msg.AssemblerPullResponse):
            self._on_pull_response(message, ctx)
        elif isinstance(message, msg.FetchRetry):
            self._on_fetch_retry(message, ctx)

    # --- ingestion ------------------------------------------------------------

    def _index_batch(self, batch: Batch) -> None:
        # Persist-then-index; duplicates are idempotent.
        digest = batch.digest()
        if digest not in self.index:
            self.index[digest] = batch
        self.fetching.pop(BatchKey(batch.seq, batch.shard, digest, batch.primary), None)

    def _on_header(self, m: msg.PublishedHeader, ctx) -> None:
        if m.header.block_seq < self.next_seq or m.header.block_seq in self.header_buffer:
            return
        self.header_buffer[m.header.block_seq] = (m.header, m.quorum_sigs)
        self._advance(ctx)

    def _advance(self, ctx) -> None:
        while True:
            entry = self.header_buffer.get(self.next_seq)
            if entry is None:
                return
            header, sigs = entry
            if self.waiting is None:
                d = self.d
                reason = verify_header(header, sigs, d.party_pubs, self.prev_hash, self.next_seq, d.n, d.f)
                if reason is not None:
                    self.rejects.append((header.block_seq, reason))
                    del self.header_buffer[self.next_seq]
                    return
                self.waiting = entry
            missing = [key for key in header.batch_digests if key.digest not in self.index]
            if missing:
                for key in missing:
                    if key not in self.fetching:
                        self.fetching[key] = 0
                        self._fetch(key, 0, ctx)
                return
            del self.header_buffer[self.next_seq]
            self._append(header, sigs, ctx)

    def _append(self, header: BlockHeader, sigs, ctx) -> None:
        batches = tuple(self.index[key.digest] for key in header.batch_digests)
        self.ledger.append(Block(header, tuple(sigs), batches))
        self.prev_hash = header.header_hash
        self.next_seq += 1
        self.waiting = None
        now = ctx.now()
        for batch in batches:
            for tx in batch.txs:
                self.inclusion_times.setdefault(tx.tx_id, now)
            self.committed_txs += len(batch.txs)
        self.throughput_series.append((now, self.committed_txs))

    # --- batch fetching --------------------------------------------------------

    def _fetch(self, key: BatchKey, attempt: int, ctx) -> None:
        party = (self.party + attempt) % self.d.n
        ctx.send(self.d.batcher[party][key.shard], msg.AssemblerPull(key.shard, key.seq, self.node_id))
        ctx.schedule(self.d.protocol.fetch_timeout_us, msg.FetchRetry(key, attempt))

    def _next_attempt(self, key: BatchKey, attempt: int, ctx) -> None:
        if key not in self.fetching or key.digest in self.index:
            return
        if self.fetching[key] != attempt:
            return
        self.fetching[key] = attempt + 1
        self._fetch(key, attempt + 1, ctx)

    def _on_pull_response(self, m: msg.AssemblerPullResponse, ctx) -> None:
        if m.batch is not None:
            self._index_batch(m.batch)
        # Keys still unresolved at this slot move on to the next party.
        for key, attempt in list(self.fetching.items()):
            if key.shard == m.shard and key.seq == m.seq and key.digest not in self.index:
                self._next_attempt(key, attempt, ctx)
        self._advance(ctx)

    def _on_fetch_retry(self, m: msg.FetchRetry, ctx) -> None:
        self._next_attempt(m.key, m.attempt, ctx)
        self._advance(ctx)


# --- offline ledger files ---------------------------------------------------


def write_ledger(path, blocks) -> None:
    with open(path, "wb") as fh:
        fh.write(LEDGER_MAGIC)
        for block in blocks:
            enc = encode_block(block)
            fh.write(u64(len(enc)))
            fh.write(enc)


def read_ledger(path, scheme: str) -> list[Block]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != LEDGER_MAGIC:
        raise ValueError("not a ledger file")
    off = 4
    blocks = []
    while off < len(data):
        length, off = read_u64(data, off)
        block, end = decode_block(data, off, scheme)
        if end != off + length:
            raise ValueError("corrupt ledger record")
        blocks.append(block)
        off = end
    return blocks


def verify_ledger_blocks(blocks, party_keys, n_parties: int, f: int):
    """Full offline re-verification: chain, quorums, content digests.

    Returns (True, None, None) or (False, block_seq, reason).
    """
    prev = ZERO_DIGEST
    for i, block in enumerate(blocks):
        reason = verify_header(block.header, block.quorum_sigs, party_keys, prev, i, n_parties, f)
        if reason is not None:
            return False, i, reason
        if len(block.batches) != len(block.header.batch_digests):
            return False, i, REJECT_CONTENT_MISMATCH
        for key, batch in zip(block.header.batch_digests, block.batches):
            if batch.digest() != key.digest:
                return False, i, REJECT_CONTENT_MISMATCH
            if batch.shard != key.shard or batch.seq != key.seq or batch.primary != key.primary:
                return False, i, REJECT_CONTENT_MISMATCH
        prev = block.header.header_hash
    return True, None, None
