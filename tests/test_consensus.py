import random

import pytest

from shardbft import messages as msg
from shardbft.consensus import (
    ConsensusNode,
    ConsensusState,
    DROP_BAD_SIGNATURE,
    DROP_DUPLICATE,
    DROP_STALE_EPOCH,
    DROP_STALE_TERM,
    DROP_UNKNOWN_SHARD,
    apply_complaints,
    filter_event,
    headed,
    process_round,
    verify_event,
)
from shardbft.core import (
    BatchAttestationShare,
    BatchKey,
    ComplaintVote,
    encode_bas_payload,
    encode_complaint_payload,
    encode_header_payload,
    header_digest,
    sha256,
    u64,
)
from shardbft.crypto import Signature, sign

from helpers import StubCtx, as_pending, make_deployment, pending_oracle


def make_share(party_keys, signer, seq, digest=None, shard=0, primary=0, epoch=0):
    digest = digest if digest is not None else sha256(b"batch" + u64(seq) + u64(shard) + u64(primary))
    key = BatchKey(seq, shard, digest, primary)
    return BatchAttestationShare.signed(signer, key, epoch, party_keys[signer])


def make_complaint(party_keys, signer, term, shard=0):
    return ComplaintVote.signed(signer, term, shard, party_keys[signer])


def make_node(party_keys, party=0, n=4, f=1, shards=1, epoch_length=10, window=2):
    d = make_deployment(
        party_keys, n=n, f=f, shards=shards, epoch_length_us=epoch_length, epoch_window=window
    )
    return ConsensusNode(d, party)


def pubs(party_keys, n=4):
    return {p: party_keys[p].public for p in range(n)}


# --- filtering -----------------------------------------------------------------


def test_filter_accepts_fresh_valid_share(party_keys):
    state = ConsensusState(epoch_window=2, shard_count=1)
    share = make_share(party_keys, 0, 0)
    ok, reason = filter_event(share, state, party_keys=pubs(party_keys))
    assert ok and reason is None


def test_filter_drops_stale_epoch(party_keys):
    state = ConsensusState(epoch_window=2, shard_count=1)
    share = make_share(party_keys, 0, 0, epoch=0)
    state.ordered_epoch = 3
    ok, reason = filter_event(share, state, party_keys=pubs(party_keys))
    assert not ok and reason == DROP_STALE_EPOCH
    state.ordered_epoch = 2
    ok, _ = filter_event(share, state, party_keys=pubs(party_keys))
    assert ok  # exactly at the window edge
    # An ordered round judges by the ordered epoch alone, whatever the clock says.
    node = make_node(party_keys, epoch_length=10, window=2)
    node.state.ordered_epoch = 3
    ctx = StubCtx(now_us=0)
    node.handle(msg.RoundDelivery(1, (share,)), ctx)
    assert not node.state.pending and node.drops == {DROP_STALE_EPOCH: 1}
    node.state.ordered_epoch = 0
    ctx.time = 10 * 10
    node.handle(msg.RoundDelivery(2, (share,)), ctx)
    assert node.state.pending == as_pending([share]) and node.drops == {DROP_STALE_EPOCH: 1}


def test_filter_drops_duplicate_signer_key(party_keys):
    state = ConsensusState(epoch_window=2, shard_count=1)
    share = make_share(party_keys, 0, 0)
    state.pending = as_pending([share])
    ok, reason = filter_event(share, state, pubs(party_keys))
    assert not ok and reason == DROP_DUPLICATE


def test_filter_drops_dedup_slot(party_keys):
    state = ConsensusState(epoch_window=2, shard_count=1)
    share = make_share(party_keys, 0, 0)
    assert not headed(state, share)
    state.dedup[share.key.slot()] = 0
    assert headed(state, share)
    ok, reason = filter_event(share, state, pubs(party_keys))
    assert not ok and reason == DROP_DUPLICATE


def test_filter_drops_bad_signature(party_keys):
    # The signature covers every field of the share: another signer, key
    # or epoch under the same signature does not verify.
    share = make_share(party_keys, 0, 0)
    state = ConsensusState(epoch_window=2, shard_count=1)
    key = share.key
    for forged in (
        BatchAttestationShare(1, key, share.epoch, share.signature),
        BatchAttestationShare(share.signer, key._replace(seq=1), share.epoch, share.signature),
        BatchAttestationShare(share.signer, key._replace(shard=1), share.epoch, share.signature),
        BatchAttestationShare(share.signer, key._replace(primary=1), share.epoch, share.signature),
        BatchAttestationShare(share.signer, key._replace(digest=sha256(b"other")), share.epoch, share.signature),
        BatchAttestationShare(share.signer, key, 1, share.signature),
    ):
        ok, reason = filter_event(forged, state, pubs(party_keys))
        assert not ok and reason == DROP_BAD_SIGNATURE


def test_a_signed_share_or_complaint_is_the_one_its_fields_build(party_keys):
    # ``signed`` encodes the payload once, for the signature and the object.
    # The object equals the one the constructor builds from its fields and
    # that signature, carries the same payload, and verifies.
    share = make_share(party_keys, 1, 4, epoch=3)
    vote = make_complaint(party_keys, 2, 5, shard=1)
    for event, twin, payload in (
        (share, BatchAttestationShare(1, share.key, 3, share.signature), encode_bas_payload(share.key, 3)),
        (vote, ComplaintVote(2, 5, 1, vote.signature), encode_complaint_payload(5, 1)),
    ):
        assert event == twin and event.signing_payload == twin.signing_payload == payload
        assert verify_event(event, pubs(party_keys))


def test_filter_drops_stale_term_complaint(party_keys):
    state = ConsensusState(epoch_window=2, shard_count=1)
    state.terms[0] = 2
    vote = make_complaint(party_keys, 1, term=1)
    ok, reason = filter_event(vote, state, pubs(party_keys))
    assert not ok and reason == DROP_STALE_TERM
    ok, _ = filter_event(make_complaint(party_keys, 1, term=2), state, pubs(party_keys))
    assert ok


# --- threshold collection ---------------------------------------------------------


def test_process_round_completes_threshold(party_keys):
    a = make_share(party_keys, 0, 0)
    b = make_share(party_keys, 1, 0)
    pending = as_pending([a])
    assert process_round(pending, [b], f=1) == [a.key]
    assert pending == {}


def test_process_round_below_threshold_stays_pending(party_keys):
    a = make_share(party_keys, 0, 0)
    pending = {}
    assert process_round(pending, [a], f=1) == [] and pending == {a.key: {0}}


def test_process_round_mixed_keys(party_keys):
    k1_a = make_share(party_keys, 0, 0)
    k2_b = make_share(party_keys, 1, 1)
    k1_c = make_share(party_keys, 2, 0)
    k1_d = make_share(party_keys, 3, 0)
    pending = as_pending([k1_a, k2_b])
    assert process_round(pending, [k1_c, k1_d], f=1) == [k1_a.key]
    assert pending == {k2_b.key: {1}}  # all three k1 signers left


def test_process_round_requires_distinct_signers(party_keys):
    a = make_share(party_keys, 0, 0)
    pending = as_pending([a])
    assert process_round(pending, [a], f=1) == [] and pending == {a.key: {0}}
    # A second share of the same signer for the key, from a later epoch,
    # does not count again.
    later = make_share(party_keys, 0, 0, epoch=1)
    assert later.key == a.key and later != a
    assert process_round(pending, [later], f=1) == [] and pending == {a.key: {0}}


def test_process_round_first_appearance_order(party_keys):
    k2 = [make_share(party_keys, s, 2) for s in range(2)]
    k1 = [make_share(party_keys, s, 1) for s in range(2)]
    winners = process_round(as_pending([k2[0], k1[0]]), [k1[1], k2[1]], f=1)
    assert [key.seq for key in winners] == [2, 1]


def test_process_round_one_winner_per_slot_and_the_slot_leaves_pending(party_keys):
    # Two digests for one ledger slot both reach F+1 in one call, and a
    # third has one share: the first-appearing key wins, and every key of
    # the slot leaves pending with it. Another slot's key stays.
    d1, d2, d3 = sha256(b"variant a"), sha256(b"variant b"), sha256(b"variant c")
    a = [make_share(party_keys, s, 0, digest=d1) for s in (0, 1)]
    b = [make_share(party_keys, s, 0, digest=d2) for s in (2, 3)]
    partial = make_share(party_keys, 0, 0, digest=d3)
    other = make_share(party_keys, 0, 1)
    pending = as_pending([partial, b[0], other, a[0]])
    assert process_round(pending, [a[1], b[1]], f=1) == [b[0].key]
    assert pending == as_pending([other])


def test_process_round_brute_force_oracle(party_keys):
    # Randomized equivalence against a plain counter over the shares.
    rng = random.Random(123)
    digests = [sha256(b"d" + bytes([i])) for i in range(4)]
    dropped_seen = 0
    for _ in range(500):
        n_parties = rng.randint(2, 6)
        f = rng.randint(0, (n_parties - 1) // 3) if n_parties >= 4 else 0
        universe = [
            (signer, seq, di)
            for signer in range(n_parties)
            for seq in range(3)
            for di in range(2)
        ]
        rng.shuffle(universe)
        chosen = universe[: rng.randint(0, min(len(universe), 8))]
        shares = [
            make_share(party_keys, signer, seq, digest=digests[di]) for signer, seq, di in chosen
        ]
        split = rng.randint(0, len(shares))
        before, batch = shares[:split], shares[split:]
        pending = as_pending(before)
        winners = process_round(pending, list(batch), f)
        expect_winners, dropped, survivors = pending_oracle(before, batch, f)
        assert winners == expect_winners
        # Every share of every slot without a winner stays pending, each
        # (signer, key) once; the awarded slots leave no key behind.
        rest = as_pending(survivors)
        assert pending == rest and list(pending) == list(rest)
        dropped_seen += len(dropped)
    assert dropped_seen > 0


# --- complaints -------------------------------------------------------------------


def test_complaints_reach_threshold(party_keys):
    state = ConsensusState(epoch_window=2, shard_count=1)
    votes = [make_complaint(party_keys, s, 0) for s in (1, 2)]
    changes = apply_complaints(votes, state, f=1)
    assert changes == [(0, 1)]
    assert state.terms[0] == 1


def test_complaints_distinct_signers_required(party_keys):
    state = ConsensusState(epoch_window=2, shard_count=1)
    votes = [make_complaint(party_keys, 1, 0)] * 3
    assert apply_complaints(votes, state, f=1) == []
    assert state.terms.get(0, 0) == 0


def test_f_adversary_complaints_never_change_term(party_keys):
    state = ConsensusState(epoch_window=2, shard_count=1)
    votes = [make_complaint(party_keys, s, 0) for s in (0, 1)]  # only F distinct
    assert apply_complaints(votes, state, f=2) == []


def test_stale_complaints_discarded_after_change(party_keys):
    state = ConsensusState(epoch_window=2, shard_count=1)
    apply_complaints([make_complaint(party_keys, s, 0) for s in (1, 2)], state, f=1)
    # Late votes for the old term no longer count and do not accumulate.
    assert apply_complaints([make_complaint(party_keys, 3, 0)], state, f=1) == []
    assert (0, 0) not in state.complaint_signers


# --- header assembly via full nodes --------------------------------------------------


def _deliver_round(nodes, ctxs, round_no, events):
    for node, ctx in zip(nodes, ctxs):
        node.handle(msg.RoundDelivery(round_no, tuple(events)), ctx)


def _cross_deliver_shares(nodes, ctxs):
    for i, ctx in enumerate(ctxs):
        for dest, m in ctx.take_sent():
            if isinstance(m, msg.HeaderShare):
                for j, node in enumerate(nodes):
                    if j != i and dest == nodes[j].node_id:
                        node.handle(m, ctxs[j])


def test_header_published_after_quorum(party_keys):
    nodes = [make_node(party_keys, party=p) for p in range(3)]  # 3 correct of 4
    ctxs = [StubCtx() for _ in nodes]
    events = [make_share(party_keys, s, 0) for s in (0, 1)] + [
        make_share(party_keys, s, 1) for s in (1, 2)
    ]
    _deliver_round(nodes, ctxs, 1, events)
    for node in nodes:
        assert node.state.next_block_seq == 1
    assert all(not any(isinstance(m, msg.PublishedHeader) for _, m in c.sent) for c in ctxs)
    _cross_deliver_shares(nodes, ctxs)
    published = [m for _, m in ctxs[0].sent if isinstance(m, msg.PublishedHeader)]
    assert len(published) == 1
    header = published[0].header
    assert [k.seq for k in header.batch_digests] == [0, 1]
    assert len(published[0].quorum_sigs) == 3  # exactly 2f+1 for n=4
    assert len({s for s, _ in published[0].quorum_sigs}) == 3


def test_empty_round_no_header(party_keys):
    node = make_node(party_keys)
    ctx = StubCtx()
    node.handle(msg.RoundDelivery(1, (make_share(party_keys, 0, 0),)), ctx)
    assert node.state.next_block_seq == 0
    assert not [m for _, m in ctx.sent if isinstance(m, msg.HeaderShare)]


def test_chain_continuity_across_rounds(party_keys):
    node = make_node(party_keys)
    ctx = StubCtx()
    node.handle(msg.RoundDelivery(1, tuple(make_share(party_keys, s, 0) for s in (0, 1))), ctx)
    node.handle(msg.RoundDelivery(2, tuple(make_share(party_keys, s, 1) for s in (0, 1))), ctx)
    (h1, _), (h2, _) = node.headers[0], node.headers[1]
    assert h2.prev_header_hash == header_digest(h1)
    assert h1.prev_header_hash == b"\x00" * 32


def test_rounds_apply_in_round_order_whatever_the_arrival_order(party_keys):
    rounds = [
        msg.RoundDelivery(1, tuple(make_share(party_keys, s, 0) for s in (0, 1))),
        msg.RoundDelivery(2, tuple(make_share(party_keys, s, 1) for s in (0, 1))),
    ]
    in_order, reordered = make_node(party_keys), make_node(party_keys)
    ctx_in, ctx_re = StubCtx(), StubCtx()
    for m in rounds:
        in_order.handle(m, ctx_in)
    reordered.handle(rounds[1], ctx_re)
    assert reordered.state.next_block_seq == 0 and not ctx_re.sent  # round 2 waits for round 1
    reordered.handle(rounds[0], ctx_re)
    reordered.handle(rounds[0], ctx_re)  # a late copy of an applied round is ignored
    assert reordered.state == in_order.state
    assert reordered.headers == in_order.headers
    assert ctx_re.sent == ctx_in.sent


def test_conflicting_share_flagged_not_counted(party_keys):
    node = make_node(party_keys)
    ctx = StubCtx()
    node.handle(msg.RoundDelivery(1, tuple(make_share(party_keys, s, 0) for s in (0, 1))), ctx)
    hhash = node.headers[0][0].header_hash
    evil = msg.HeaderShare(0, sha256(b"other header"), 1, sign(party_keys[1], b"whatever"))
    node.handle(evil, ctx)
    assert node.evidence and node.evidence[0][0] == "conflicting_header"
    assert 1 not in node.headers[0][1]
    # A share with the right hash but a junk signature is flagged too.
    junk = msg.HeaderShare(0, hhash, 2, Signature("test_mac", b"\x00" * 32))
    node.handle(junk, ctx)
    assert node.evidence[-1][0] == "bad_share_signature"


def test_share_buffered_until_round_arrives(party_keys):
    nodes = [make_node(party_keys, party=p) for p in range(2)]
    ctxs = [StubCtx() for _ in nodes]
    events = tuple(make_share(party_keys, s, 0) for s in (0, 1))
    nodes[1].handle(msg.RoundDelivery(1, events), ctxs[1])
    share = next(m for _, m in ctxs[1].sent if isinstance(m, msg.HeaderShare))
    nodes[0].handle(share, ctxs[0])  # arrives before node 0 sees the round
    assert nodes[0].share_buffer
    nodes[0].handle(msg.RoundDelivery(1, events), ctxs[0])
    assert nodes[0].headers[0][1].keys() >= {0, 1}


def test_share_for_a_published_header_is_ignored(party_keys):
    # The quorum publishes seq 0 and its header goes; a late share for it,
    # valid or not, changes nothing and brings no entry back.
    nodes = [make_node(party_keys, party=p) for p in range(4)]
    ctxs = [StubCtx() for _ in nodes]
    events = tuple(make_share(party_keys, s, 0) for s in (0, 1))
    for node, ctx in zip(nodes, ctxs):
        node.handle(msg.RoundDelivery(1, events), ctx)
    shares = [next(m for _, m in ctx.take_sent() if isinstance(m, msg.HeaderShare)) for ctx in ctxs]
    ctx = ctxs[0]
    for share in shares[1:3]:
        nodes[0].handle(share, ctx)
    published = [m for _, m in ctx.take_sent() if isinstance(m, msg.PublishedHeader)]
    assert len(published) == 1 and [s for s, _ in published[0].quorum_sigs] == [0, 1, 2]
    assert nodes[0].headers == {}
    nodes[0].handle(shares[3], ctx)
    nodes[0].handle(msg.HeaderShare(0, sha256(b"other header"), 3, shares[3].signature), ctx)
    assert nodes[0].headers == {} and nodes[0].share_buffer == {}
    assert nodes[0].evidence == [] and ctx.sent == []


def test_same_slot_two_digests_single_winner(party_keys):
    # An equivocating proposer pushes two keys for one ledger slot past the
    # count threshold in the same round: only one header entry results, ever.
    node = make_node(party_keys)
    ctx = StubCtx()
    d1, d2 = sha256(b"variant a"), sha256(b"variant b")
    events = (
        make_share(party_keys, 0, 0, digest=d1),
        make_share(party_keys, 1, 0, digest=d1),
        make_share(party_keys, 2, 0, digest=d2),
        make_share(party_keys, 3, 0, digest=d2),
    )
    node.handle(msg.RoundDelivery(1, events), ctx)
    assert node.state.next_block_seq == 1
    keys = node.headers[0][0].batch_digests
    assert len(keys) == 1 and keys[0].digest == d1
    # The loser's shares leave pending with the slot, and the batcher hears
    # only of the winner.
    assert node.state.pending == {}
    updates = [m for _, m in ctx.take_sent() if isinstance(m, msg.OrderedUpdate)]
    assert updates == [msg.OrderedUpdate((keys[0],), None)]
    # Later rounds cannot mint a second header for that slot: F+1 shares of
    # a third digest are dropped as they are ordered, and nothing is sent.
    late = tuple(make_share(party_keys, s, 0, digest=sha256(b"variant c")) for s in (2, 3))
    node.handle(msg.RoundDelivery(2, late), ctx)
    assert node.state.next_block_seq == 1
    assert node.state.pending == {} and ctx.sent == []


def _expire_slot_zero(party_keys):
    # Round 1 gives slot (0, 0, 0) to one of two digests, each with F+1
    # shares; two rounds of epoch-5 shares for seqs 1 and 2 then move the
    # horizon past epoch 0, so the slot's dedup entry expires.
    node = make_node(party_keys, epoch_length=10, window=2)
    ctx = StubCtx()
    d1, d2 = sha256(b"variant a"), sha256(b"variant b")
    events = tuple(make_share(party_keys, s, 0, digest=d1 if s < 2 else d2) for s in range(4))
    node.handle(msg.RoundDelivery(1, events), ctx)
    for round_no, seq in ((2, 1), (3, 2)):
        shares = tuple(make_share(party_keys, s, seq, epoch=5) for s in (0, 1))
        node.handle(msg.RoundDelivery(round_no, shares), ctx)
    return node, ctx, events[0].key.slot()


def _header_slots(node):
    return [key.slot() for seq in sorted(node.headers) for key in node.headers[seq][0].batch_digests]


def test_expired_slot_takes_its_pending_keys_along(party_keys):
    # The round-1 loser left pending when the slot was awarded; had it
    # outlived the slot's dedup entry, the next round would give the slot a
    # second header entry.
    node, _ctx, slot = _expire_slot_zero(party_keys)
    assert _header_slots(node) == [slot, (0, 1, 0), (0, 2, 0)]
    assert slot not in node.state.dedup
    assert not [key for key in node.state.pending if key.slot() == slot]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a fresh-epoch share reopens an expired slot; ROADMAP item 1's per-shard "
    "low-water mark of headed seqs closes it",
)
def test_fresh_epoch_shares_never_reopen_an_expired_slot(party_keys):
    # F+1 shares with a current epoch for the expired slot pass both epoch
    # checks, as an honest secondary's share for a late-persisted batch would.
    node, ctx, slot = _expire_slot_zero(party_keys)
    fresh = tuple(make_share(party_keys, s, 0, digest=sha256(b"variant c"), epoch=5) for s in (2, 3))
    node.handle(msg.RoundDelivery(4, fresh), ctx)
    assert _header_slots(node).count(slot) == 1


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a replayed share of a headed slot, with an epoch past the slot's, reopens the "
    "slot once it expires; ROADMAP item 1's per-shard low-water mark closes it",
)
def test_a_replayed_late_share_never_reopens_an_expired_slot(party_keys):
    # Slot (0, 0, 0) is won in epoch 0. Two late shares of it with epoch 1
    # are refused as headed; after the slot expires, the total order
    # delivers them again, and their epoch is still inside the window.
    node = make_node(party_keys, epoch_length=10, window=2)
    ctx = StubCtx()
    node.handle(msg.RoundDelivery(1, tuple(make_share(party_keys, s, 0) for s in (0, 1))), ctx)
    late = tuple(make_share(party_keys, s, 0, epoch=1) for s in (2, 3))
    node.handle(msg.RoundDelivery(2, late), ctx)
    assert node.drops == {DROP_DUPLICATE: 2}
    node.handle(msg.RoundDelivery(3, tuple(make_share(party_keys, s, 1, epoch=3) for s in (0, 1))), ctx)
    assert (0, 0, 0) not in node.state.dedup
    node.handle(msg.RoundDelivery(4, late), ctx)
    assert _header_slots(node).count((0, 0, 0)) == 1


def test_replayed_stale_share_never_makes_second_header(party_keys):
    # Epoch window: entries are evicted from the dedup db, and shares whose
    # epoch predates the watermark window are refused by the admission rule
    # and never make a header when ordered.
    node = make_node(party_keys, epoch_length=10, window=2)
    ctx = StubCtx()
    ctx.time = 5
    original = [make_share(party_keys, s, 0, epoch=0) for s in (0, 1)]
    node.handle(msg.RoundDelivery(1, tuple(original)), ctx)
    assert node.state.next_block_seq == 1
    slot = original[0].key.slot()
    assert slot in node.state.dedup
    # Epochs advance well past the window; the dedup entry is evicted.
    fresh = make_share(party_keys, 0, 7, epoch=5)
    node.handle(msg.RoundDelivery(2, (fresh,)), ctx)
    assert slot not in node.state.dedup
    # The admission rule refuses the replay: stale epoch.
    ok, reason = filter_event(original[0], node.state, pubs(party_keys))
    assert not ok and reason == DROP_STALE_EPOCH
    # Replay forced straight into a round: still no second header.
    node.handle(msg.RoundDelivery(3, tuple(original)), ctx)
    assert node.state.next_block_seq == 1
    assert node.state.pending == {fresh.key: {0}}
    assert node.drops == {DROP_STALE_EPOCH: 2}


def test_replayed_rounds_emit_exactly_what_single_delivery_emits(party_keys):
    # The total order may deliver an event again in any later round. Every
    # repeat, stale-epoch shares and complaints included, is refused by the
    # admission rule, so the node sends the same header shares and updates,
    # makes the same headers and term changes, and ends in the same state.
    # Every share of a seq carries one epoch: a share with an epoch past its
    # slot's can reopen the slot once it expires, replayed or not (the two
    # strict xfails above).
    rng = random.Random(505)
    rounds = []
    for round_no in range(1, 60):
        top = round_no // 4
        events = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.75:
                seq = rng.randrange(max(0, top - 6), top + 3)
                digest = sha256(b"d" + bytes([rng.randrange(2)]))
                signer, shard, primary = rng.randrange(4), rng.randrange(2), rng.randrange(2)
                events.append(make_share(party_keys, signer, seq, digest, shard, primary, epoch=seq // 3))
            else:
                events.append(make_complaint(party_keys, rng.randrange(4), rng.randrange(3), rng.randrange(2)))
        rounds.append(events)
    once, replayed = make_node(party_keys, shards=2), make_node(party_keys, shards=2)
    ctx_once, ctx_replayed = StubCtx(), StubCtx()
    for round_no, events in enumerate(rounds, start=1):
        mixed = list(events)  # earlier rounds' events, anywhere in this one
        for event in (e for earlier in rounds[: round_no - 1] for e in earlier):
            mixed.insert(rng.randrange(len(mixed) + 1), event)
        ctx_once.time = ctx_replayed.time = round_no * 10
        once.handle(msg.RoundDelivery(round_no, tuple(events)), ctx_once)
        replayed.handle(msg.RoundDelivery(round_no, tuple(mixed)), ctx_replayed)
    assert ctx_replayed.sent == ctx_once.sent
    assert replayed.headers == once.headers and replayed.term_change_log == once.term_change_log
    assert replayed.state == once.state and replayed.pending_series == once.pending_series
    assert len(once.headers) > 5 and len(once.term_change_log) > 1
    refused = {k: n - once.drops.get(k, 0) for k, n in replayed.drops.items()}
    assert all(refused[k] > 0 for k in (DROP_DUPLICATE, DROP_STALE_EPOCH, DROP_STALE_TERM))


def test_a_repeat_within_a_round_counts_once(party_keys):
    # The sequencer orders whatever is submitted, so a round can carry an
    # event twice. Both copies pass the admission rule against the round's
    # start state; the round keeps one share per signer and one complaint
    # per signer. The repeated term-1 complaint comes after the term change
    # it would otherwise complete.
    share = make_share(party_keys, 0, 0)
    early = make_complaint(party_keys, 2, 1)
    votes = [make_complaint(party_keys, 1, 1), early, *(make_complaint(party_keys, s, 0) for s in (1, 2))]
    rounds_once = [[share, *votes], [make_share(party_keys, 1, 0)]]
    rounds_twice = [[share, share, *votes, early], rounds_once[1]]
    once, twice = make_node(party_keys), make_node(party_keys)
    ctx_once, ctx_twice = StubCtx(), StubCtx()
    for round_no, (a, b) in enumerate(zip(rounds_once, rounds_twice), start=1):
        once.handle(msg.RoundDelivery(round_no, tuple(a)), ctx_once)
        twice.handle(msg.RoundDelivery(round_no, tuple(b)), ctx_twice)
    assert once.state.terms == {0: 1} and once.state.next_block_seq == 1
    assert twice.state == once.state and twice.headers == once.headers
    assert twice.drops == once.drops == {} and twice.term_change_log == once.term_change_log
    assert ctx_twice.sent == ctx_once.sent


def test_term_change_notifies_batchers(party_keys):
    node = make_node(party_keys)
    ctx = StubCtx()
    votes = tuple(make_complaint(party_keys, s, 0) for s in (1, 2))
    node.handle(msg.RoundDelivery(1, votes), ctx)
    updates = [m for d, m in ctx.sent if isinstance(m, msg.OrderedUpdate) and d == node.d.batcher[0][0]]
    assert updates and updates[0].new_term == 1
    assert node.term_change_log and node.term_change_log[0][1:] == (0, 1)


def test_an_event_for_a_shard_past_the_last_is_refused_when_ordered(party_keys):
    # Shard 2 of 2 has no batcher: its shares and complaints are refused by
    # the one admission rule, so no header names it and no term moves.
    # The shard is judged before the epoch: a share of shard 2 whose epoch
    # is also stale reads unknown_shard, where one of shard 1 reads stale.
    node = make_node(party_keys, shards=2, window=2)
    node.state.ordered_epoch = 3
    ctx = StubCtx()
    bad_shares = [make_share(party_keys, s, 0, shard=2, epoch=3) for s in (0, 1)]
    bad_shares.append(make_share(party_keys, 2, 0, shard=2, epoch=0))
    stale = make_share(party_keys, 2, 0, shard=1, epoch=0)
    assert filter_event(stale, node.state, pubs(party_keys)) == (False, DROP_STALE_EPOCH)
    bad_votes = [make_complaint(party_keys, s, 0, shard=2) for s in (1, 2)]
    for event in (*bad_shares, *bad_votes):
        assert filter_event(event, node.state, pubs(party_keys)) == (False, DROP_UNKNOWN_SHARD)
    good = [make_share(party_keys, s, 0, shard=1, epoch=3) for s in (0, 1)]
    node.handle(msg.RoundDelivery(1, (*bad_shares, *bad_votes, *good)), ctx)
    assert [k.shard for k in node.headers[0][0].batch_digests] == [1]
    assert node.state.terms == {} and node.state.complaint_signers == {}
    assert node.drops == {DROP_UNKNOWN_SHARD: 5}
    updates = [(d, m) for d, m in ctx.sent if isinstance(m, msg.OrderedUpdate)]
    assert [(d, [k.shard for k in m.thresholded], m.new_term) for d, m in updates] == [
        (node.d.batcher[0][1], [1], None)
    ]


def test_deterministic_headers_across_replicas(party_keys):
    rng = random.Random(77)
    streams = []
    for round_no in range(1, 30):
        events = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.8:
                events.append(
                    make_share(
                        party_keys,
                        rng.randrange(4),
                        rng.randrange(4),
                        digest=sha256(b"d" + bytes([rng.randrange(3)])),
                        primary=rng.randrange(2),
                        epoch=rng.randrange(3),
                    )
                )
            else:
                events.append(make_complaint(party_keys, rng.randrange(4), rng.randrange(2)))
        streams.append(tuple(events))
    replicas = [make_node(party_keys, party=p) for p in range(4)]
    ctxs = [StubCtx() for _ in replicas]
    for round_no, events in enumerate(streams, start=1):
        for node, ctx in zip(replicas, ctxs):
            node.handle(msg.RoundDelivery(round_no, events), ctx)
    # No header share is swapped, so every header stays unpublished.
    reference = [
        encode_header_payload(replicas[0].headers[i][0]) for i in range(replicas[0].state.next_block_seq)
    ]
    for node in replicas[1:]:
        mine = [encode_header_payload(node.headers[i][0]) for i in range(node.state.next_block_seq)]
        assert mine == reference
    # Safety independence: no slot ever appears in two different headers.
    seen_slots = {}
    for i in range(replicas[0].state.next_block_seq):
        for key in replicas[0].headers[i][0].batch_digests:
            assert key.slot() not in seen_slots, "slot committed twice"
            seen_slots[key.slot()] = i


def test_byzantine_garbage_in_round_is_ignored(party_keys):
    node = make_node(party_keys)
    ctx = StubCtx()
    good = [make_share(party_keys, s, 0) for s in (0, 1)]
    forged = BatchAttestationShare(2, good[0].key, 0, Signature("test_mac", b"\x00" * 32))
    unknown_signer = make_share({**party_keys, 9: party_keys[0]}, 9, 0)
    node.handle(msg.RoundDelivery(1, (forged, unknown_signer, *good)), ctx)
    assert node.state.next_block_seq == 1
    assert node.headers[0][0].batch_digests[0] == good[0].key


def test_share_with_a_short_digest_never_verifies(party_keys):
    node = make_node(party_keys)
    ctx = StubCtx()
    good = make_share(party_keys, 0, 0)
    short_key = good.key._replace(digest=good.key.digest[:31])
    short = BatchAttestationShare(1, short_key, 0, sign(party_keys[1], good.signing_payload))
    assert short.signing_payload is None
    assert not verify_event(short, pubs(party_keys))
    ok, reason = filter_event(short, ConsensusState(epoch_window=2, shard_count=1), pubs(party_keys))
    assert not ok and reason == DROP_BAD_SIGNATURE
    node.handle(msg.RoundDelivery(1, (good, short)), ctx)
    assert node.state.next_block_seq == 0
    assert node.state.pending == as_pending([good])
