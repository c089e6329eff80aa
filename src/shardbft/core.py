"""Shared domain types, canonical byte encodings, and threshold arithmetic.

Everything that is signed or hashed anywhere in the system is encoded here,
in one place, so that every node derives byte-identical payloads. Integers
are fixed-width 8-byte big-endian; lists are length-prefixed; each signed
payload starts with a one-byte domain tag so payloads of different kinds can
never collide. The byte layouts are documented in docs/formats.md.

Party ids, shard ids, terms and epochs are plain non-negative ints.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

from .crypto import Signature

DIGEST_LEN = 32
ZERO_DIGEST = b"\x00" * DIGEST_LEN

# Domain tags for signed payloads.
_TAG_BAS = b"\x42"
_TAG_COMPLAINT = b"\x43"
_TAG_HEADER = b"\x48"

_U64 = struct.Struct(">Q")
u64 = _U64.pack  # u64(value) -> 8 bytes; no Python frame on the per-tx path


# Decoders read untrusted bytes (ledger files): every integer, length and
# count is checked against the bytes that remain, so a corrupt one is a
# ValueError.


def read_u64(buf: bytes, off: int) -> tuple[int, int]:
    if off + 8 > len(buf):
        raise ValueError("u64 exceeds remaining bytes")
    return _U64.unpack_from(buf, off)[0], off + 8


def _read_bytes(buf: bytes, off: int, length: int) -> tuple[bytes, int]:
    end = off + length
    if end > len(buf):
        raise ValueError("length exceeds remaining bytes")
    return bytes(buf[off:end]), end


def _read_count(buf: bytes, off: int, min_item_len: int) -> tuple[int, int]:
    """A u64 item count, each item taking at least ``min_item_len`` bytes."""
    count, off = read_u64(buf, off)
    if count * min_item_len > len(buf) - off:
        raise ValueError("count exceeds remaining bytes")
    return count, off


# Encoded sizes that bound item counts in the decoders.
_BATCH_KEY_LEN = 8 + 8 + DIGEST_LEN + 8
_BATCH_HEADER_LEN = 5 * 8  # shard, seq, term, primary, tx count
_LEN_PREFIXED_TX = 8 + 3 * 8  # length prefix, then client id and two lengths
_QUORUM_SIG_LEN = 2 * 8  # signer, signature length


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# ---------------------------------------------------------------------------
# Threshold arithmetic


def quorum_size(n: int, f: int) -> int:
    """Smallest count whose pairwise intersections always exceed ``f`` parties.

    ceil((n + f + 1) / 2); equals 2f+1 when n = 3f+1.
    """
    if f < 0 or n < 3 * f + 1:
        raise ValueError(f"invalid configuration: need n >= 3f+1, got n={n}, f={f}")
    return (n + f + 2) // 2


def attestation_threshold(f: int) -> int:
    """Distinct attestations required before a batch enters the total order."""
    if f < 0:
        raise ValueError("fault bound must be non-negative")
    return f + 1


def primary_for_term(term: int, n: int) -> int:
    """Round-robin assignment of the proposing party for a term."""
    return term % n


# ---------------------------------------------------------------------------
# Transactions


def tx_signing_bytes(client_id: int, payload: bytes) -> bytes:
    return u64(client_id) + payload


@dataclass(frozen=True, slots=True)
class Transaction:
    client_id: int
    payload: bytes
    signature: Signature
    # Computed once at construction; derived, so not part of ==, hash or repr.
    signing_bytes: bytes = field(init=False, compare=False, repr=False)
    tx_id: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        signing_bytes = tx_signing_bytes(self.client_id, self.payload)
        object.__setattr__(self, "signing_bytes", signing_bytes)
        object.__setattr__(self, "tx_id", sha256(signing_bytes))


def encode_transaction(tx: Transaction) -> bytes:
    return b"".join(
        (
            u64(tx.client_id),
            u64(len(tx.payload)),
            tx.payload,
            u64(len(tx.signature.data)),
            tx.signature.data,
        )
    )


def decode_transaction(buf: bytes, off: int, scheme: str) -> tuple[Transaction, int]:
    client_id, off = read_u64(buf, off)
    plen, off = read_u64(buf, off)
    payload, off = _read_bytes(buf, off, plen)
    slen, off = read_u64(buf, off)
    sig, off = _read_bytes(buf, off, slen)
    return Transaction(client_id, payload, Signature(scheme, sig)), off


# ---------------------------------------------------------------------------
# Batches


@dataclass(frozen=True)
class Batch:
    """Ordered transactions proposed for one shard at one ledger position."""

    shard: int
    seq: int
    term: int
    primary: int
    txs: tuple[Transaction, ...]

    def encoded(self) -> bytes:
        """``encode_batch(self)``, computed once: the digest and every ledger file reuse it."""
        cached = self.__dict__.get("_encoded")
        if cached is None:
            cached = encode_batch(self)
            self.__dict__["_encoded"] = cached
        return cached

    def digest(self) -> bytes:
        """sha256 of the canonical encoding: shard, seq, term, primary and the ordered txs."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = sha256(self.encoded())
            self.__dict__["_digest"] = cached
        return cached

    def key(self) -> BatchKey:
        return BatchKey(self.seq, self.shard, self.digest(), self.primary)


def encode_batch(batch: Batch) -> bytes:
    parts = [u64(batch.shard), u64(batch.seq), u64(batch.term), u64(batch.primary), u64(len(batch.txs))]
    for tx in batch.txs:
        enc = encode_transaction(tx)
        parts.append(u64(len(enc)))
        parts.append(enc)
    return b"".join(parts)


def decode_batch(buf: bytes, off: int, scheme: str) -> tuple[Batch, int]:
    shard, off = read_u64(buf, off)
    seq, off = read_u64(buf, off)
    term, off = read_u64(buf, off)
    primary, off = read_u64(buf, off)
    count, off = _read_count(buf, off, _LEN_PREFIXED_TX)
    txs = []
    for _ in range(count):
        tlen, off = read_u64(buf, off)
        tx, end = decode_transaction(buf, off, scheme)
        if end != off + tlen:
            raise ValueError("corrupt batch encoding")
        txs.append(tx)
        off = end
    return Batch(shard, seq, term, primary, tuple(txs)), off


# ---------------------------------------------------------------------------
# Attestations


class BatchKey(NamedTuple):
    """Aggregation key for attestation counting; a tuple, so it hashes and compares in C."""

    seq: int
    shard: int
    digest: bytes
    primary: int

    def slot(self) -> tuple[int, int, int]:
        # The ledger position a key occupies, independent of content digest.
        return (self.shard, self.seq, self.primary)


def _encode_key(key: BatchKey) -> bytes:
    return u64(key.seq) + u64(key.shard) + key.digest + u64(key.primary)


def _decode_key(buf: bytes, off: int) -> tuple[BatchKey, int]:
    seq, off = read_u64(buf, off)
    shard, off = read_u64(buf, off)
    digest, off = _read_bytes(buf, off, DIGEST_LEN)
    primary, off = read_u64(buf, off)
    return BatchKey(seq, shard, digest, primary), off


@dataclass(frozen=True, slots=True)
class BatchAttestationShare:
    """One party's signed claim that the batch ``key`` names is persisted on its disk."""

    signer: int
    key: BatchKey
    epoch: int
    signature: Signature
    # Computed once at construction; derived, so not part of ==, hash or repr.
    # The payload is None when the digest has the wrong length: such a share
    # has no signing payload and never verifies.
    signing_payload: bytes | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        payload = encode_bas_payload(self.key, self.epoch) if len(self.key.digest) == DIGEST_LEN else None
        object.__setattr__(self, "signing_payload", payload)


def encode_bas_payload(key: BatchKey, epoch: int) -> bytes:
    """Injective signing payload for a batch attestation share."""
    if len(key.digest) != DIGEST_LEN:
        raise ValueError(f"digest must be {DIGEST_LEN} bytes")
    return b"".join((_TAG_BAS, u64(key.seq), key.digest, u64(key.shard), u64(key.primary), u64(epoch)))


# ---------------------------------------------------------------------------
# Complaints


@dataclass(frozen=True, slots=True)
class ComplaintVote:
    """Signed accusation against the proposing party of (shard, term)."""

    signer: int
    term: int
    shard: int
    signature: Signature
    # Computed once at construction; derived, so not part of ==, hash or repr.
    signing_payload: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "signing_payload", encode_complaint_payload(self.term, self.shard))


def encode_complaint_payload(term: int, shard: int) -> bytes:
    return _TAG_COMPLAINT + u64(term) + u64(shard)


# ---------------------------------------------------------------------------
# Block headers and blocks


@dataclass(frozen=True, slots=True)
class BlockHeader:
    block_seq: int
    prev_header_hash: bytes
    batch_digests: tuple[BatchKey, ...]
    # Computed once at construction; derived, so not part of ==, hash or repr.
    signing_payload: bytes = field(init=False, compare=False, repr=False)
    header_hash: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        payload = encode_header_payload(self)
        object.__setattr__(self, "signing_payload", payload)
        object.__setattr__(self, "header_hash", sha256(payload))


def encode_header_payload(header: BlockHeader) -> bytes:
    parts = [_TAG_HEADER, u64(header.block_seq), header.prev_header_hash, u64(len(header.batch_digests))]
    parts.extend(map(_encode_key, header.batch_digests))
    return b"".join(parts)


def header_digest(header: BlockHeader) -> bytes:
    return header.header_hash


@dataclass(frozen=True)
class Block:
    """A quorum-signed header joined with the batches it references."""

    header: BlockHeader
    quorum_sigs: tuple[tuple[int, Signature], ...]  # (signer, signature), signer-sorted
    batches: tuple[Batch, ...]


def encode_block(block: Block) -> bytes:
    parts = [block.header.signing_payload, u64(len(block.quorum_sigs))]
    for signer, sig in block.quorum_sigs:
        parts.append(u64(signer))
        parts.append(u64(len(sig.data)))
        parts.append(sig.data)
    parts.append(u64(len(block.batches)))
    for batch in block.batches:
        enc = batch.encoded()
        parts.append(u64(len(enc)))
        parts.append(enc)
    return b"".join(parts)


def decode_header_payload(buf: bytes, off: int) -> tuple[BlockHeader, int]:
    if buf[off : off + 1] != _TAG_HEADER:
        raise ValueError("not a header payload")
    off += 1
    block_seq, off = read_u64(buf, off)
    prev, off = _read_bytes(buf, off, DIGEST_LEN)
    count, off = _read_count(buf, off, _BATCH_KEY_LEN)
    keys = []
    for _ in range(count):
        key, off = _decode_key(buf, off)
        keys.append(key)
    return BlockHeader(block_seq, prev, tuple(keys)), off


def decode_block(buf: bytes, off: int, scheme: str) -> tuple[Block, int]:
    header, off = decode_header_payload(buf, off)
    nsigs, off = _read_count(buf, off, _QUORUM_SIG_LEN)
    sigs = []
    for _ in range(nsigs):
        signer, off = read_u64(buf, off)
        slen, off = read_u64(buf, off)
        data, off = _read_bytes(buf, off, slen)
        sigs.append((signer, Signature(scheme, data)))
    nbatches, off = _read_count(buf, off, 8 + _BATCH_HEADER_LEN)
    batches = []
    for _ in range(nbatches):
        blen, off = read_u64(buf, off)
        batch, end = decode_batch(buf, off, scheme)
        if end != off + blen:
            raise ValueError("corrupt block encoding")
        batches.append(batch)
        off = end
    return Block(header, tuple(sigs), tuple(batches)), off
