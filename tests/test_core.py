import itertools
import random
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardbft.assembler import read_ledger, write_ledger
from shardbft.core import (
    Batch,
    BatchAttestationShare,
    BatchKey,
    Block,
    BlockHeader,
    ComplaintVote,
    Transaction,
    attestation_threshold,
    decode_batch,
    decode_block,
    decode_transaction,
    encode_bas_payload,
    encode_batch,
    encode_block,
    encode_complaint_payload,
    encode_header_payload,
    encode_transaction,
    header_digest,
    quorum_size,
    sha256,
    tx_signing_bytes,
)
from shardbft.crypto import Signature

from helpers import make_batch, make_tx


def test_quorum_size_known_values():
    assert quorum_size(4, 1) == 3  # 2f+1 for n=3f+1
    assert quorum_size(7, 2) == 5
    assert quorum_size(10, 3) == 7


def test_quorum_size_rejects_bad_config():
    with pytest.raises(ValueError):
        quorum_size(3, 1)
    with pytest.raises(ValueError):
        quorum_size(6, 2)
    with pytest.raises(ValueError):
        quorum_size(4, -1)


def test_quorum_minimality_by_enumeration():
    # Oracle for (10, 3): enumerate all pairs of subsets of each candidate
    # size; 7 is the smallest size whose pairwise intersections always
    # exceed f parties.
    n, f = 10, 3
    q = quorum_size(n, f)
    assert q == 7

    def always_intersects(size):
        subsets = list(itertools.combinations(range(n), size))
        return all(len(set(a) & set(b)) > f for a in subsets for b in subsets)

    assert always_intersects(q)
    assert not always_intersects(q - 1)


def test_quorum_intersection_property_all_valid_configs():
    for f in range(0, 6):
        for n in range(3 * f + 1, 3 * f + 8):
            assert quorum_size(n, f) * 2 - n >= f + 1


def test_attestation_threshold():
    assert attestation_threshold(1) == 2
    assert attestation_threshold(0) == 1
    assert attestation_threshold(3) == 4
    with pytest.raises(ValueError):
        attestation_threshold(-1)


def _bas_layout(key, epoch):
    """The share payload as docs/formats.md lays it out: tag 0x42, then the
    key's seq, digest, shard and primary, then the epoch."""
    return b"\x42" + struct.pack(">Q32sQQQ", key.seq, key.digest, key.shard, key.primary, epoch)


def test_bas_payload_deterministic_and_distinct():
    key = BatchKey(0, 0, b"\x00" * 32, 0)
    a = encode_bas_payload(key, 0)
    assert a == encode_bas_payload(BatchKey(0, 0, b"\x00" * 32, 0), 0) == _bas_layout(key, 0)
    assert len(a) == 65
    for other, epoch in (
        (key._replace(seq=1), 0),
        (key._replace(shard=1), 0),
        (key._replace(digest=b"\x01" * 32), 0),
        (key._replace(primary=1), 0),
        (key, 1),
    ):
        assert encode_bas_payload(other, epoch) != a


def test_bas_payload_rejects_bad_digest():
    for length in (0, 31, 33):
        with pytest.raises(ValueError):
            encode_bas_payload(BatchKey(0, 0, b"\x00" * length, 0), 0)


_keys = st.builds(
    BatchKey,
    st.integers(0, 2**32),
    st.integers(0, 64),
    st.binary(min_size=32, max_size=32),
    st.integers(0, 64),
)
_payload_args = st.tuples(
    st.builds(
        BatchKey,
        st.integers(0, 2**40),
        st.integers(0, 1000),
        st.binary(min_size=32, max_size=32),
        st.integers(0, 1000),
    ),
    st.integers(0, 2**32),
)


@settings(max_examples=200)
@given(_payload_args, _payload_args)
def test_bas_payload_injective(a, b):
    ea = encode_bas_payload(*a)
    eb = encode_bas_payload(*b)
    assert ea == _bas_layout(*a)
    assert (ea == eb) == (a == b)


def test_batch_digest_deterministic(client_keys):
    txs = [make_tx(c % 4, bytes([c]) * 8, client_keys) for c in range(5)]
    batch = make_batch(txs)
    again = make_batch(txs)
    assert batch.digest() == again.digest()


def test_batch_digest_order_sensitive(client_keys):
    txs = [make_tx(c % 4, bytes([c]) * 8, client_keys) for c in range(5)]
    assert make_batch(txs).digest() != make_batch(txs[::-1]).digest()


def test_batch_digest_metadata_sensitive(client_keys):
    txs = [make_tx(0, b"payload", client_keys)]
    base = make_batch(txs)
    assert base.digest() != make_batch(txs, seq=1).digest()
    assert base.digest() != make_batch(txs, term=1).digest()
    assert base.digest() != make_batch(txs, primary=1).digest()
    assert base.digest() != make_batch(txs, shard=1).digest()


def test_batch_digest_perturbations_no_collisions(client_keys):
    rng = random.Random(7)
    txs = [make_tx(c % 4, rng.randbytes(16), client_keys) for c in range(8)]
    base = make_batch(txs)
    seen_inputs = {(None, None)}
    seen_digests = {base.digest()}
    checked = 0
    while checked < 1000:
        i = rng.randrange(len(txs))
        pos = rng.randrange(16)
        bit = rng.randrange(8)
        if (i, (pos, bit)) in seen_inputs:
            continue
        seen_inputs.add((i, (pos, bit)))
        mutated = list(txs)
        payload = bytearray(mutated[i].payload)
        payload[pos] ^= 1 << bit
        mutated[i] = Transaction(mutated[i].client_id, bytes(payload), mutated[i].signature)
        digest = make_batch(mutated).digest()
        assert digest not in seen_digests
        seen_digests.add(digest)
        checked += 1


def test_batch_encoding_round_trip(client_keys, scheme):
    rng = random.Random(3)
    txs = [make_tx(c % 4, rng.randbytes(rng.randint(1, 40)), client_keys) for c in range(6)]
    batch = Batch(2, 9, 1, 3, tuple(txs))
    decoded, end = decode_batch(encode_batch(batch), 0, scheme)
    assert end == len(encode_batch(batch))
    assert decoded == batch
    assert decoded.digest() == batch.digest()


def test_tx_id_stable_under_resigning(client_keys):
    tx1 = make_tx(1, b"same payload", client_keys)
    tx2 = Transaction(1, b"same payload", Signature(tx1.signature.scheme, b"\x00" * 32))
    assert tx1.tx_id == tx2.tx_id
    assert sha256(b"x") != tx1.tx_id


def test_tx_id_is_hash_of_signing_bytes_and_survives_encoding(client_keys, scheme):
    tx = make_tx(2, b"tx id payload", client_keys)
    assert tx.signing_bytes == tx_signing_bytes(2, b"tx id payload")
    assert tx.tx_id == sha256(tx_signing_bytes(2, b"tx id payload"))
    decoded, _ = decode_transaction(encode_transaction(tx), 0, scheme)
    assert decoded == tx
    assert decoded.tx_id == tx.tx_id
    assert decoded.signing_bytes == tx.signing_bytes


def test_tx_id_excluded_from_eq_hash_repr(client_keys):
    tx = make_tx(3, b"derived field", client_keys)
    twin = Transaction(tx.client_id, tx.payload, tx.signature, signed_over=b"other bytes")
    assert twin.signing_bytes == b"other bytes" and twin.tx_id != tx.tx_id
    assert twin == tx and hash(twin) == hash(tx) and repr(twin) == repr(tx)
    _assert_derived(tx, ("signing_bytes", "tx_id"), ["client_id", "payload", "signature"])


@given(_keys)
def test_batch_key_hash_is_computed_once_and_unchanged(key):
    # The field tuple's hash: set and dict order, and so every report byte,
    # depend on it.
    assert hash(key) == hash((key.seq, key.shard, key.digest, key.primary))
    twin = BatchKey(key.seq, key.shard, key.digest, key.primary)
    assert twin == key and hash(twin) == hash(key)
    assert repr(twin) == repr(key) == (
        f"BatchKey(seq={key.seq!r}, shard={key.shard!r}, digest={key.digest!r}, primary={key.primary!r})"
    )
    with pytest.raises(AttributeError):
        key.seq = 1


def _assert_derived(obj, derived, compared):
    """``compared`` are the constructor's leading parameters and the fields
    that ==, hash and repr read; ``derived`` fields are outside all three.
    Every field is frozen: assigning or deleting one raises AttributeError."""
    twin = type(obj)(*(getattr(obj, name) for name in compared))
    for name in derived:
        object.__setattr__(twin, name, None)
        assert not re.search(rf"\b{name}=", repr(obj))
    assert twin == obj and hash(twin) == hash(obj) and repr(twin) == repr(obj)
    assert obj != tuple(getattr(obj, name) for name in compared)  # only a record of its own class is equal
    for name in compared:
        assert re.search(rf"\b{name}=", repr(obj))
        other = type(obj)(*(getattr(obj, field) for field in compared))
        object.__setattr__(other, name, object())
        assert other != obj, name
    for name in (*compared, *derived):
        value = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, b"x")
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is value


@settings(max_examples=200)
@given(_payload_args, st.integers(0, 6), st.binary(max_size=40))
def test_share_caches_its_key_and_signing_payload(args, signer, sig):
    # A share signs the bytes of its own key and epoch, so a copy with
    # another key or epoch signs other bytes.
    key, epoch = args
    share = BatchAttestationShare(signer, key, epoch, Signature("test_mac", sig))
    assert share.key == key and share.signing_payload == _bas_layout(key, epoch)
    moved = key._replace(seq=key.seq + 1)
    assert BatchAttestationShare(signer, moved, epoch, share.signature).signing_payload == _bas_layout(moved, epoch)
    assert BatchAttestationShare(signer, key, epoch + 1, share.signature).signing_payload == _bas_layout(key, epoch + 1)
    _assert_derived(share, ("signing_payload",), ["signer", "key", "epoch", "signature"])


def test_share_with_a_short_digest_constructs_without_a_payload():
    key = BatchKey(1, 0, b"\x01" * 31, 0)
    share = BatchAttestationShare(0, key, 0, Signature("test_mac", b""))
    assert share.signing_payload is None
    assert share.key == key


def test_complaint_caches_its_signing_payload():
    vote = ComplaintVote(2, 5, 1, Signature("test_mac", b"\x07" * 32))
    assert vote.signing_payload == encode_complaint_payload(5, 1)
    _assert_derived(vote, ("signing_payload",), ["signer", "term", "shard", "signature"])


def test_header_caches_payload_and_hash_through_the_ledger(client_keys, scheme, tmp_path):
    txs = [make_tx(c, bytes([c]) * 12, client_keys) for c in range(3)]
    batches = (make_batch(txs[:2], seq=1), make_batch(txs[2:], shard=1, seq=4))
    header = BlockHeader(3, b"\x11" * 32, tuple(b.key() for b in batches))
    assert header.signing_payload == encode_header_payload(header)
    assert header.header_hash == sha256(encode_header_payload(header))
    assert header_digest(header) is header.header_hash
    _assert_derived(
        header, ("signing_payload", "header_hash"), ["block_seq", "prev_header_hash", "batch_digests"]
    )
    block = Block(header, ((0, txs[0].signature),), batches)
    decoded, _ = decode_block(encode_block(block), 0, scheme)
    path = tmp_path / "ledger.bin"
    write_ledger(path, [block])
    for got in (decoded.header, read_ledger(path, scheme)[0].header):
        assert got == header
        assert got.signing_payload == header.signing_payload
        assert got.header_hash == header.header_hash


def _corruptions(encoded: bytes):
    """Every 8-byte window overwritten with a huge or a just-too-large value."""
    for value in (2**64 - 1, 2**62, len(encoded)):
        for i in range(len(encoded) - 7):
            yield encoded[:i] + struct.pack(">Q", value) + encoded[i + 8 :]


def test_decoders_bound_lengths_and_counts(client_keys, party_keys, scheme):
    txs = [make_tx(c, bytes([c]) * 12, client_keys) for c in range(3)]
    batches = (make_batch(txs[:2], seq=1), make_batch(txs[2:], shard=1, seq=4))
    header = BlockHeader(0, b"\x11" * 32, tuple(b.key() for b in batches))
    block = Block(header, ((0, txs[0].signature), (2, txs[1].signature)), batches)
    cases = [
        (lambda buf: decode_transaction(buf, 0, scheme), encode_transaction(txs[0])),
        (lambda buf: decode_batch(buf, 0, scheme), encode_batch(batches[0])),
        (lambda buf: decode_block(buf, 0, scheme), encode_block(block)),
    ]
    for decode, encoded in cases:
        decode(encoded)
        for corrupt in _corruptions(encoded):
            try:
                decode(corrupt)
            except ValueError:
                pass
        for end in range(len(encoded)):  # every truncation
            with pytest.raises(ValueError):
                decode(encoded[:end])
