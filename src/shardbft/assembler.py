"""Block assembly: join quorum-signed headers with fetched batches.

The assembler indexes each batch it sees by ledger slot and digest until a
block takes the slot (own party's batchers push their persisted batches;
anything still missing when a header arrives is pulled from other parties'
batchers round-robin until the digest matches). Its position is its ledger:
a header's consensus quorum is verified once, when it arrives; the header at
the ledger's height is checked against the last block's hash, then appended
to an append-only block ledger, which serializes to length-prefixed
canonical block encodings so it can be re-verified offline with nothing but
the consensus public keys.
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


def verify_header(header: BlockHeader, sigs, party_keys, n_parties: int, f: int) -> str | None:
    """None when a quorum of parties validly signed the header, otherwise the rejection reason."""
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
        # Ledger slot (shard, seq, primary) -> digest -> batch, until a block takes the slot.
        self.index: dict[tuple[int, int, int], dict[bytes, Batch]] = {}
        self.ledger: list[Block] = []
        self.header_buffer: dict[int, tuple[BlockHeader, tuple]] = {}
        self.fetching: dict[BatchKey, int] = {}
        self.rejects: list[tuple[int, str]] = []
        # Commit bookkeeping for reports.
        self.inclusion_times: dict[bytes, int] = {}
        self.committed_txs = 0
        self.throughput_series: list[tuple[int, int]] = []

    def handle(self, message, ctx) -> None:
        if isinstance(message, Batch):  # its own party's batcher persisted it
            self._index_batch(message)
            self._advance(ctx)
        elif isinstance(message, msg.PublishedHeader):
            self._on_header(message, ctx)
        elif isinstance(message, msg.AssemblerPullResponse):
            self._on_pull_response(message, ctx)
        elif isinstance(message, msg.FetchRetry):  # indexes nothing, so nothing to advance
            self._next_attempt(message.key, message.attempt, ctx)

    # --- ingestion ------------------------------------------------------------

    def _index_batch(self, batch: Batch) -> None:
        # Persist-then-index; duplicates are idempotent.
        key = batch.key()
        self.index.setdefault(key.slot(), {}).setdefault(key.digest, batch)
        self.fetching.pop(key, None)

    def _held(self, key: BatchKey) -> bool:
        return key.digest in self.index.get(key.slot(), ())

    def _on_header(self, m: msg.PublishedHeader, ctx) -> None:
        seq = m.header.block_seq
        if seq < len(self.ledger) or seq in self.header_buffer:
            return
        reason = verify_header(m.header, m.quorum_sigs, self.d.party_pubs, self.d.n, self.d.f)
        if reason is not None:
            self.rejects.append((seq, reason))
            return
        self.header_buffer[seq] = (m.header, m.quorum_sigs)
        self._advance(ctx)

    def _advance(self, ctx) -> None:
        while (height := len(self.ledger)) in self.header_buffer:
            header, sigs = self.header_buffer[height]
            prev_hash = self.ledger[-1].header.header_hash if self.ledger else ZERO_DIGEST
            if header.prev_header_hash != prev_hash:
                self.rejects.append((height, REJECT_CHAIN_BREAK))
                del self.header_buffer[height]
                return
            missing = [key for key in header.batch_digests if not self._held(key)]
            if missing:
                for key in missing:
                    if key not in self.fetching:
                        self.fetching[key] = 0
                        self._fetch(key, 0, ctx)
                return
            del self.header_buffer[height]
            self._append(header, sigs, ctx)

    def _append(self, header: BlockHeader, sigs, ctx) -> None:
        # Every variant held for one of the block's slots leaves with it: a
        # slot is headed once.
        batches = tuple(self.index.pop(key.slot())[key.digest] for key in header.batch_digests)
        self.ledger.append(Block(header, tuple(sigs), batches))
        now = ctx.now()
        for batch in batches:
            for tx in batch.txs:
                self.inclusion_times.setdefault(tx.tx_id, now)
            self.committed_txs += len(batch.txs)
        self.throughput_series.append((now, self.committed_txs))

    # --- batch fetching --------------------------------------------------------

    def _fetch(self, key: BatchKey, attempt: int, ctx) -> None:
        party = (self.party + attempt) % self.d.n
        ctx.send(self.d.batcher[party][key.shard], msg.AssemblerPull(key.seq, self.party))
        ctx.schedule(self.d.protocol.fetch_timeout_us, msg.FetchRetry(key, attempt))

    def _next_attempt(self, key: BatchKey, attempt: int, ctx) -> None:
        # A fetch is live exactly while its key is in `fetching`: indexing a
        # batch pops its key, and only missing keys are added.
        if self.fetching.get(key) != attempt:
            return
        self.fetching[key] = attempt + 1
        self._fetch(key, attempt + 1, ctx)

    def _on_pull_response(self, m: msg.AssemblerPullResponse, ctx) -> None:
        # A batch no header is fetching is a late or an off-target answer.
        indexed = m.batch is not None and m.batch.key() in self.fetching
        if indexed:
            self._index_batch(m.batch)
        # Keys still unresolved at this slot move on to the next party.
        for key, attempt in list(self.fetching.items()):
            if key.shard == m.shard and key.seq == m.seq:
                self._next_attempt(key, attempt, ctx)
        if indexed:
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
        if block.header.block_seq != i:
            return False, i, REJECT_BAD_SEQ
        if block.header.prev_header_hash != prev:
            return False, i, REJECT_CHAIN_BREAK
        reason = verify_header(block.header, block.quorum_sigs, party_keys, n_parties, f)
        if reason is not None:
            return False, i, reason
        if len(block.batches) != len(block.header.batch_digests):
            return False, i, REJECT_CONTENT_MISMATCH
        for key, batch in zip(block.header.batch_digests, block.batches):
            if batch.key() != key:
                return False, i, REJECT_CONTENT_MISMATCH
        prev = block.header.header_hash
    return True, None, None
